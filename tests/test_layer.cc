/** @file Unit tests for layer shape math. */

#include <gtest/gtest.h>

#include "models/layer.h"

namespace dream {
namespace {

using namespace models;

TEST(Layer, ConvShapes)
{
    const Layer l = conv("c", 224, 224, 3, 64, 7, 2);
    EXPECT_EQ(l.outH(), 112u);
    EXPECT_EQ(l.outW(), 112u);
    EXPECT_EQ(l.outPositions(), 112ull * 112);
    EXPECT_EQ(l.inCPerGroup(), 3u);
    EXPECT_EQ(l.accumulationDepth(), 3ull * 7 * 7);
    EXPECT_EQ(l.macs(), 112ull * 112 * 64 * 3 * 7 * 7);
    EXPECT_EQ(l.weightBytes(), 64ull * 3 * 7 * 7);
    EXPECT_EQ(l.inputBytes(), 224ull * 224 * 3);
    EXPECT_EQ(l.outputBytes(), 112ull * 112 * 64);
}

TEST(Layer, SamePaddingRoundsUp)
{
    const Layer l = conv("c", 7, 7, 8, 8, 3, 2);
    EXPECT_EQ(l.outH(), 4u);
    EXPECT_EQ(l.outW(), 4u);
}

TEST(Layer, DepthwiseGrouping)
{
    const Layer l = dwConv("dw", 56, 56, 128, 3, 1);
    EXPECT_EQ(l.groups, 128u);
    EXPECT_EQ(l.inCPerGroup(), 1u);
    EXPECT_EQ(l.accumulationDepth(), 9ull);
    EXPECT_EQ(l.macs(), 56ull * 56 * 128 * 9);
    EXPECT_EQ(l.weightBytes(), 128ull * 9);
}

TEST(Layer, PointwiseIsOneByOne)
{
    const Layer l = pwConv("pw", 28, 28, 64, 128);
    EXPECT_EQ(l.kH, 1u);
    EXPECT_EQ(l.kW, 1u);
    EXPECT_EQ(l.macs(), 28ull * 28 * 64 * 128);
}

TEST(Layer, FullyConnected)
{
    const Layer l = fc("fc", 1024, 4096);
    EXPECT_EQ(l.outPositions(), 1ull);
    EXPECT_EQ(l.macs(), 1024ull * 4096);
    EXPECT_EQ(l.weightBytes(), 1024ull * 4096);
    EXPECT_EQ(l.inputBytes(), 1024ull);
    EXPECT_EQ(l.outputBytes(), 4096ull);
}

TEST(Layer, RnnRepeatsScaleMacsAndActivations)
{
    const Layer l = rnn("r", 1024, 4096, 24);
    EXPECT_EQ(l.macs(), 24ull * 1024 * 4096);
    // Weights are shared across steps.
    EXPECT_EQ(l.weightBytes(), 1024ull * 4096);
    EXPECT_EQ(l.inputBytes(), 24ull * 1024);
    EXPECT_EQ(l.outputBytes(), 24ull * 4096);
}

TEST(Layer, PoolHasNoWeights)
{
    const Layer l = pool("p", 56, 56, 64, 2, 2);
    EXPECT_EQ(l.weightBytes(), 0ull);
    EXPECT_EQ(l.macs(), 28ull * 28 * 64 * 4);
    EXPECT_EQ(l.outH(), 28u);
}

TEST(Layer, EltwiseCountsOnePerElement)
{
    const Layer l = eltwise("e", 14, 14, 256);
    EXPECT_EQ(l.macs(), 14ull * 14 * 256);
    EXPECT_EQ(l.weightBytes(), 0ull);
}

} // namespace
} // namespace dream
