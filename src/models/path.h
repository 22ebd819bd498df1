/**
 * @file
 * An execution path: the layer sequence one frame runs, held as an
 * immutable list that every frame on the same path shares.
 */

#ifndef DREAM_MODELS_PATH_H
#define DREAM_MODELS_PATH_H

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "models/layer.h"

namespace dream {
namespace models {

/**
 * A shared, immutable layer list. Copying a Path copies a reference,
 * not the layers, so frames materialised on one (task, skip
 * selection, exit cut) or moved to one Supernet variant hold one
 * list between them. The list lives as long as any copy does, so a
 * copied frame or request may outlive the source that built its
 * path.
 *
 * id() names the list: copies of one Path share it, separately built
 * paths never do while both live. Memo tables keyed by id() hold a
 * copy of the Path so the address cannot be reused under them.
 */
class Path {
public:
    /** The empty path (no list). */
    Path() = default;
    /** A path over its own copy of @p layers; implicit, so a layer
     *  vector can stand where a path is expected. */
    Path(std::vector<Layer> layers)
        : layers_(std::make_shared<const std::vector<Layer>>(
              std::move(layers)))
    {}

    size_t size() const { return layers_ ? layers_->size() : 0; }
    bool empty() const { return size() == 0; }
    const Layer& operator[](size_t i) const { return (*layers_)[i]; }
    const Layer* begin() const
    {
        return layers_ ? layers_->data() : nullptr;
    }
    const Layer* end() const { return begin() + size(); }

    /** Identity of the shared list; null for the empty path. */
    const void* id() const { return layers_.get(); }

private:
    std::shared_ptr<const std::vector<Layer>> layers_;
};

} // namespace models
} // namespace dream

#endif // DREAM_MODELS_PATH_H
