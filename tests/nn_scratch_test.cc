/**
 * @file
 * Steady-state allocation tests for the NN hot path.
 *
 * The training loop calls forward/backward thousands of times per round;
 * the layers promise that after a warm-up call with a given batch shape,
 * subsequent calls reuse every scratch buffer (persistent dw_step members,
 * the LSTM step caches, the GEMM pack panel) and perform zero heap
 * allocations. This binary replaces global operator new/delete with a
 * counting shim and asserts exactly that.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "nn/lstm.h"
#include "nn/pool2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::size_t> g_alloc_max{0};  //!< largest request, in bytes
} // namespace

void *
operator new(std::size_t n)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    std::size_t max = g_alloc_max.load(std::memory_order_relaxed);
    while (n > max && !g_alloc_max.compare_exchange_weak(
                          max, n, std::memory_order_relaxed)) {
    }
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using fedgpo::tensor::Tensor;
namespace nn = fedgpo::nn;

std::uint64_t
allocsDuring(const std::function<void()> &fn)
{
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

/** Largest single allocation (bytes) made by fn; 0 when none. */
std::size_t
largestAllocDuring(const std::function<void()> &fn)
{
    g_alloc_max.store(0, std::memory_order_relaxed);
    fn();
    return g_alloc_max.load(std::memory_order_relaxed);
}

TEST(SteadyStateAllocs, MatmulReusesOutputAndPackPanel)
{
    Tensor a({16, 24}), b({24, 12}), c;
    a.fill(0.5f);
    b.fill(0.25f);
    fedgpo::tensor::matmul(a, b, c); // warm-up: sizes c, grows the panel
    const std::uint64_t n =
        allocsDuring([&] { fedgpo::tensor::matmul(a, b, c); });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, DenseForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(21);
    nn::Dense layer(24, 12, rng);
    Tensor x({8, 24}, 0.5f);
    Tensor dy({8, 12}, 1.0f);
    layer.forward(x, true);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, Conv2DForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(22);
    nn::Conv2D layer(3, 8, 3, 10, 10, 2, 1, rng);
    Tensor x({4, 3, 10, 10}, 0.5f);
    layer.forward(x, true);
    Tensor dy({4, 8, layer.outHeight(), layer.outWidth()}, 1.0f);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, FirstLayerConv2DAllocatesNoInputGradient)
{
    // As a model's first layer the convolution only takes
    // backwardParams(): it must never build its largest buffers, the
    // input-gradient columns [n*oh*ow, in_c*k*k] and the input gradient
    // [n, in_c, h, w]. Its other backward buffers are smaller than both.
    fedgpo::util::Rng rng(26);
    nn::Conv2D layer(3, 8, 3, 10, 10, 2, 1, rng);
    const Tensor x({4, 3, 10, 10}, 0.5f);
    const Tensor dy({4, 8, 5, 5}, 1.0f);
    const std::size_t grad_cols_bytes = 4 * 5 * 5 * 3 * 3 * 3 * sizeof(float);
    const std::size_t grad_in_bytes = x.numel() * sizeof(float);
    layer.forward(x, true);
    EXPECT_LT(largestAllocDuring([&] { layer.backwardParams(dy); }),
              std::min(grad_cols_bytes, grad_in_bytes));
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backwardParams(dy);
    });
    EXPECT_EQ(n, 0u);
    // A full backward does build them: the probe above can see them.
    EXPECT_GE(largestAllocDuring([&] { layer.backward(dy); }),
              std::max(grad_cols_bytes, grad_in_bytes));
}

/** Allocations of one forward + backward after a warm-up pair. */
std::uint64_t
steadyStateAllocs(nn::Layer &layer, const Tensor &x, const Tensor &dy)
{
    layer.forward(x, true);
    layer.backward(dy);
    return allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
}

TEST(SteadyStateAllocs, DepthwiseConv2DForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(25);
    // Stride 1 "same" (one flat pass per tap) and stride 2 (row passes).
    nn::DepthwiseConv2D same(4, 3, 10, 10, 1, 1, rng);
    nn::DepthwiseConv2D strided(4, 3, 10, 10, 2, 1, rng);
    const Tensor x({3, 4, 10, 10}, 0.5f);
    EXPECT_EQ(steadyStateAllocs(same, x, Tensor({3, 4, 10, 10}, 1.0f)), 0u);
    EXPECT_EQ(steadyStateAllocs(strided, x, Tensor({3, 4, 5, 5}, 1.0f)),
              0u);
}

TEST(SteadyStateAllocs, MaxPool2DForwardBackwardAllocationFree)
{
    nn::MaxPool2D layer(4, 2, 8, 8);
    EXPECT_EQ(steadyStateAllocs(layer, Tensor({3, 4, 8, 8}, 0.5f),
                                Tensor({3, 4, 4, 4}, 1.0f)),
              0u);
}

TEST(SteadyStateAllocs, ReLUForwardBackwardAllocationFree)
{
    nn::ReLU layer;
    EXPECT_EQ(steadyStateAllocs(layer, Tensor({3, 4, 8, 8}, 0.5f),
                                Tensor({3, 4, 8, 8}, 1.0f)),
              0u);
}

TEST(SteadyStateAllocs, FlattenForwardBackwardAllocationFree)
{
    nn::Flatten layer;
    EXPECT_EQ(steadyStateAllocs(layer, Tensor({3, 4, 2, 2}, 0.5f),
                                Tensor({3, 16}, 1.0f)),
              0u);
}

TEST(SteadyStateAllocs, LstmForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(23);
    nn::LSTM layer(12, 16, 6, rng);
    Tensor x({4, 6, 12}, 0.5f);
    Tensor dy({4, 16}, 1.0f);
    layer.forward(x, true);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, LstmParamsOnlyBackwardAllocationFree)
{
    // The first-layer path: no input-gradient buffers, nothing allocated
    // in steady state.
    fedgpo::util::Rng rng(27);
    nn::LSTM layer(12, 16, 6, rng);
    Tensor x({4, 6, 12}, 0.5f);
    Tensor dy({4, 16}, 1.0f);
    layer.forward(x, true);
    layer.backwardParams(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backwardParams(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, LstmReallocatesOnlyOnBatchShapeChange)
{
    fedgpo::util::Rng rng(24);
    nn::LSTM layer(8, 8, 4, rng);
    Tensor x4({4, 4, 8}, 0.5f);
    Tensor x2({2, 4, 8}, 0.5f);
    layer.forward(x4, true);
    // Shrinking the batch rebuilds the caches...
    const std::uint64_t shrink =
        allocsDuring([&] { layer.forward(x2, true); });
    EXPECT_GT(shrink, 0u);
    // ...but repeating the same shape is free again.
    const std::uint64_t repeat =
        allocsDuring([&] { layer.forward(x2, true); });
    EXPECT_EQ(repeat, 0u);
}

} // namespace
