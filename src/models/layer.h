/**
 * @file
 * Layer (operator) descriptor for the DREAM model zoo.
 *
 * DREAM consumes per-(layer, accelerator) latency/energy tables generated
 * offline by a cost model (the paper uses MAESTRO). The scheduler therefore
 * only needs each operator's *shape*: MAC count, weight footprint and
 * activation footprint, plus enough structure (accumulation depth, output
 * positions, grouping) for a dataflow-aware cost model to rank WS vs OS
 * affinity the way MAESTRO does.
 *
 * All tensors are int8-quantised (1 byte/element), the common deployment
 * format for dense edge accelerators such as NVDLA.
 */

#ifndef DREAM_MODELS_LAYER_H
#define DREAM_MODELS_LAYER_H

#include <cstdint>
#include <string>

namespace dream {
namespace models {

/** Operator category. Determines the MAC/footprint formulas. */
enum class LayerKind {
    /** 2-D convolution (optionally grouped / depthwise). */
    Conv2d,
    /** Fully-connected / matrix-vector layer. */
    FullyConnected,
    /**
     * Recurrent cell applied @ref Layer::repeat times (LSTM/GRU step).
     * Weights are shared across steps; activations stream per step.
     */
    Rnn,
    /** Pooling (max/avg); no weights, one multiply-accumulate per tap. */
    Pool,
    /** Elementwise op (residual add, activation); one op per element. */
    Eltwise,
};

/**
 * Shape descriptor of one operator instance.
 *
 * Convolutions use the full field set; FC layers set the spatial fields
 * to one and use inC/outC as in/out features. Same-padding is assumed,
 * so outH = ceil(inH/stride).
 */
struct Layer {
    std::string name;
    LayerKind kind = LayerKind::Conv2d;

    uint32_t inH = 1;     ///< input height
    uint32_t inW = 1;     ///< input width
    uint32_t inC = 1;     ///< input channels (or in features)
    uint32_t outC = 1;    ///< output channels (or out features)
    uint32_t kH = 1;      ///< kernel height
    uint32_t kW = 1;      ///< kernel width
    uint32_t stride = 1;  ///< spatial stride
    uint32_t groups = 1;  ///< channel groups (== inC for depthwise)
    uint32_t repeat = 1;  ///< temporal steps (Rnn) or batched repeats

    /** Output height under same-padding. */
    uint32_t outH() const;
    /** Output width under same-padding. */
    uint32_t outW() const;
    /** Output spatial positions (outH * outW). */
    uint64_t outPositions() const;
    /** Input channels per group. */
    uint32_t inCPerGroup() const;
    /** Accumulation depth per output element (icg * kH * kW). */
    uint64_t accumulationDepth() const;

    /** Total multiply-accumulates for one inference of this layer. */
    uint64_t macs() const;
    /** Weight footprint in bytes (int8). */
    uint64_t weightBytes() const;
    /** Input activation footprint in bytes (int8), across all repeats. */
    uint64_t inputBytes() const;
    /** Output activation footprint in bytes (int8), across all repeats. */
    uint64_t outputBytes() const;
};

/** @name Layer factory helpers used throughout the zoo. */
/// @{

/** Standard 2-D convolution. */
Layer conv(const std::string& name, uint32_t in_h, uint32_t in_w,
           uint32_t in_c, uint32_t out_c, uint32_t k, uint32_t stride = 1);

/** Depthwise 2-D convolution (groups == inC == outC). */
Layer dwConv(const std::string& name, uint32_t in_h, uint32_t in_w,
             uint32_t c, uint32_t k, uint32_t stride = 1);

/** Pointwise (1x1) convolution. */
Layer pwConv(const std::string& name, uint32_t in_h, uint32_t in_w,
             uint32_t in_c, uint32_t out_c);

/** Fully-connected layer. */
Layer fc(const std::string& name, uint32_t in_features,
         uint32_t out_features);

/** Recurrent cell run for @p steps steps. */
Layer rnn(const std::string& name, uint32_t in_features,
          uint32_t out_features, uint32_t steps);

/** Pooling layer. */
Layer pool(const std::string& name, uint32_t in_h, uint32_t in_w,
           uint32_t c, uint32_t k, uint32_t stride);

/** Elementwise layer over an (h, w, c) tensor. */
Layer eltwise(const std::string& name, uint32_t h, uint32_t w, uint32_t c);

/// @}

} // namespace models
} // namespace dream

#endif // DREAM_MODELS_LAYER_H
