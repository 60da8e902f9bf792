/**
 * @file
 * Differential tests for the rewritten scalar layers on the MobileNet
 * training path: DepthwiseConv2D forward/backward, ReLU backward and
 * MaxPool2D forward.
 *
 * Each layer is checked against a test-local oracle: the plain loop nest
 * the layer used before it was restructured for speed, kept verbatim. The
 * rewrite promises that every output and gradient element folds the same
 * terms in the same order, so the results must agree bit for bit for any
 * kernel extent, stride, padding and input, non-finite inputs included.
 * Any NaN counts as equal to any NaN (payloads may differ); NaN-ness and
 * every other bit may not.
 *
 * MaxPool2D's oracle masks a NaN that is not first in its window (x > best
 * is false for NaN); the layer now propagates it, so on windows holding a
 * NaN the expectation is NaN out and the gradient routed to the first NaN.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/depthwise_conv2d.h"
#include "nn/pool2d.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {
namespace {

using tensor::Tensor;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/** Bitwise equality, except that any NaN equals any NaN. */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    std::uint32_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

::testing::AssertionResult
sameBits(const float *got, const float *want, std::size_t count,
         const std::string &what)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (!sameBits(got[i], want[i])) {
            return ::testing::AssertionFailure()
                   << what << "[" << i << "]: got " << got[i] << ", want "
                   << want[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * Random values in [-2, 2]. With `special`, about one element in six is
 * replaced by +Inf, -Inf, NaN, -0 or +0.
 */
void
fill(float *p, std::size_t count, std::mt19937 &gen, bool special)
{
    std::uniform_real_distribution<float> value(-2.0f, 2.0f);
    std::uniform_int_distribution<int> pick(0, 29);
    const float specials[5] = {kInf, -kInf, kNaN, -0.0f, 0.0f};
    for (std::size_t i = 0; i < count; ++i) {
        const int r = special ? pick(gen) : 5;
        p[i] = r < 5 ? specials[r] : value(gen);
    }
}

// ---------------------------------------------------------------------------
// Oracles: the layers' loop nests before the rewrite, verbatim.
// ---------------------------------------------------------------------------

void
depthwiseForwardOracle(const float *pi, const float *pw, const float *pb,
                       float *po, std::size_t n, std::size_t c_,
                       std::size_t in_h_, std::size_t in_w_, std::size_t k_,
                       std::size_t stride_, std::size_t pad_,
                       std::size_t oh_, std::size_t ow_)
{
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c_; ++ch) {
            const float *x = pi + (img * c_ + ch) * in_h_ * in_w_;
            const float *f = pw + ch * k_ * k_;
            float *y = po + (img * c_ + ch) * oh_ * ow_;
            for (std::size_t oy = 0; oy < oh_; ++oy) {
                for (std::size_t ox = 0; ox < ow_; ++ox) {
                    float acc = pb[ch];
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                        const long iy =
                            static_cast<long>(oy * stride_ + ky) -
                            static_cast<long>(pad_);
                        if (iy < 0 || iy >= static_cast<long>(in_h_))
                            continue;
                        for (std::size_t kx = 0; kx < k_; ++kx) {
                            const long ix =
                                static_cast<long>(ox * stride_ + kx) -
                                static_cast<long>(pad_);
                            if (ix < 0 || ix >= static_cast<long>(in_w_))
                                continue;
                            acc += f[ky * k_ + kx] * x[iy * in_w_ + ix];
                        }
                    }
                    y[oy * ow_ + ox] = acc;
                }
            }
        }
    }
}

/** pdi must start zeroed; pdw and pdb accumulate onto their contents. */
void
depthwiseBackwardOracle(const float *pi, const float *pw, const float *pg,
                        float *pdw, float *pdb, float *pdi, std::size_t n,
                        std::size_t c_, std::size_t in_h_, std::size_t in_w_,
                        std::size_t k_, std::size_t stride_,
                        std::size_t pad_, std::size_t oh_, std::size_t ow_)
{
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c_; ++ch) {
            const float *x = pi + (img * c_ + ch) * in_h_ * in_w_;
            const float *f = pw + ch * k_ * k_;
            const float *dy = pg + (img * c_ + ch) * oh_ * ow_;
            float *df = pdw + ch * k_ * k_;
            float *dx = pdi + (img * c_ + ch) * in_h_ * in_w_;
            for (std::size_t oy = 0; oy < oh_; ++oy) {
                for (std::size_t ox = 0; ox < ow_; ++ox) {
                    const float g = dy[oy * ow_ + ox];
                    pdb[ch] += g;
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                        const long iy =
                            static_cast<long>(oy * stride_ + ky) -
                            static_cast<long>(pad_);
                        if (iy < 0 || iy >= static_cast<long>(in_h_))
                            continue;
                        for (std::size_t kx = 0; kx < k_; ++kx) {
                            const long ix =
                                static_cast<long>(ox * stride_ + kx) -
                                static_cast<long>(pad_);
                            if (ix < 0 || ix >= static_cast<long>(in_w_))
                                continue;
                            df[ky * k_ + kx] += g * x[iy * in_w_ + ix];
                            dx[iy * in_w_ + ix] += g * f[ky * k_ + kx];
                        }
                    }
                }
            }
        }
    }
}

void
reluBackwardOracle(const float *po, const float *pg, float *pd,
                   std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        pd[i] = po[i] > 0.0f ? pg[i] : 0.0f;
}

void
maxPoolForwardOracle(const float *pi, float *po,
                     std::vector<std::size_t> &argmax_, std::size_t n,
                     std::size_t c_, std::size_t h_, std::size_t w_,
                     std::size_t k_, std::size_t oh_, std::size_t ow_)
{
    std::size_t out_idx = 0;
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c_; ++ch) {
            const float *x = pi + (img * c_ + ch) * h_ * w_;
            const std::size_t base = (img * c_ + ch) * h_ * w_;
            for (std::size_t oy = 0; oy < oh_; ++oy) {
                for (std::size_t ox = 0; ox < ow_; ++ox, ++out_idx) {
                    std::size_t best = (oy * k_) * w_ + ox * k_;
                    float best_v = x[best];
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                        for (std::size_t kx = 0; kx < k_; ++kx) {
                            std::size_t idx =
                                (oy * k_ + ky) * w_ + ox * k_ + kx;
                            if (x[idx] > best_v) {
                                best_v = x[idx];
                                best = idx;
                            }
                        }
                    }
                    po[out_idx] = best_v;
                    argmax_[out_idx] = base + best;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

struct DwCase
{
    std::size_t k, stride, pad, h, w;
    bool special;
};

std::string
describe(const DwCase &g)
{
    std::ostringstream os;
    os << "k=" << g.k << " stride=" << g.stride << " pad=" << g.pad
       << " h=" << g.h << " w=" << g.w
       << (g.special ? " (Inf/NaN/-0 inputs)" : " (finite inputs)");
    return os.str();
}

void
checkDepthwise(const DwCase &g, std::mt19937 &gen)
{
    SCOPED_TRACE(describe(g));
    const std::size_t n = 2, c = 3;
    util::Rng rng(7);
    DepthwiseConv2D layer(c, g.k, g.h, g.w, g.stride, g.pad, rng);
    const std::size_t oh = layer.outHeight(), ow = layer.outWidth();
    Tensor &weights = *layer.params()[0];
    Tensor &bias = *layer.params()[1];
    Tensor &dw = *layer.grads()[0];
    Tensor &db = *layer.grads()[1];
    fill(weights.data(), weights.numel(), gen, g.special);
    fill(bias.data(), bias.numel(), gen, g.special);
    // Gradients accumulate onto what is already there.
    fill(dw.data(), dw.numel(), gen, g.special);
    fill(db.data(), db.numel(), gen, g.special);
    Tensor x({n, c, g.h, g.w});
    fill(x.data(), x.numel(), gen, g.special);
    Tensor dy({n, c, oh, ow});
    fill(dy.data(), dy.numel(), gen, g.special);

    Tensor want_y({n, c, oh, ow});
    depthwiseForwardOracle(x.data(), weights.data(), bias.data(),
                           want_y.data(), n, c, g.h, g.w, g.k, g.stride,
                           g.pad, oh, ow);
    Tensor want_dw = dw, want_db = db;
    Tensor want_dx({n, c, g.h, g.w});
    depthwiseBackwardOracle(x.data(), weights.data(), dy.data(),
                            want_dw.data(), want_db.data(), want_dx.data(),
                            n, c, g.h, g.w, g.k, g.stride, g.pad, oh, ow);

    const Tensor &y = layer.forward(x, true);
    ASSERT_EQ(y.shape(), want_y.shape());
    EXPECT_TRUE(sameBits(y.data(), want_y.data(), y.numel(), "y"));
    const Tensor &dx = layer.backward(dy);
    ASSERT_EQ(dx.shape(), want_dx.shape());
    EXPECT_TRUE(sameBits(dx.data(), want_dx.data(), dx.numel(), "dx"));
    EXPECT_TRUE(sameBits(dw.data(), want_dw.data(), dw.numel(), "df"));
    EXPECT_TRUE(sameBits(db.data(), want_db.data(), db.numel(), "db"));
}

TEST(LayerEquivalence, DepthwiseMatchesOracleOverGeometries)
{
    std::mt19937 gen(20240611);
    const std::size_t extents[][2] = {{5, 6}, {8, 7}, {9, 9}};
    int checked = 0;
    for (std::size_t k : {1, 2, 3, 5}) {
        for (std::size_t stride : {1, 2, 3}) {
            for (std::size_t pad : {0, 1, 2}) {
                for (const auto &hw : extents) {
                    if (hw[0] + 2 * pad < k || hw[1] + 2 * pad < k)
                        continue;
                    for (bool special : {false, true}) {
                        checkDepthwise({k, stride, pad, hw[0], hw[1],
                                        special},
                                       gen);
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 4 * 3 * 3 * 3 * 2);
}

TEST(LayerEquivalence, DepthwiseMatchesOracleOnMobileNetShapes)
{
    std::mt19937 gen(7);
    for (std::size_t hw : {16, 8})
        for (bool special : {false, true})
            checkDepthwise({3, 1, 1, hw, hw, special}, gen);
}

TEST(LayerEquivalence, ReluBackwardMatchesOracle)
{
    std::mt19937 gen(11);
    for (bool special : {false, true}) {
        ReLU layer;
        Tensor x({3, 4, 5, 7}), dy({3, 4, 5, 7});
        fill(x.data(), x.numel(), gen, special);
        fill(dy.data(), dy.numel(), gen, special);
        const Tensor &y = layer.forward(x, true);
        Tensor want(dy.shape());
        reluBackwardOracle(y.data(), dy.data(), want.data(), dy.numel());
        const Tensor &dx = layer.backward(dy);
        EXPECT_TRUE(sameBits(dx.data(), want.data(), dx.numel(), "dx"));
    }
}

TEST(LayerEquivalence, MaxPoolForwardMatchesOracle)
{
    std::mt19937 gen(13);
    std::uniform_int_distribution<int> coarse(-2, 2);
    for (std::size_t k : {1, 2, 3}) {
        for (std::size_t mult : {2, 3}) {
            for (bool special : {false, true}) {
                const std::size_t n = 2, c = 3, h = k * mult,
                                  w = k * (mult + 1);
                SCOPED_TRACE("k=" + std::to_string(k) + " h=" +
                             std::to_string(h) + " w=" + std::to_string(w) +
                             (special ? " (Inf/NaN/-0)" : ""));
                MaxPool2D layer(c, k, h, w);
                const std::size_t oh = h / k, ow = w / k;
                Tensor x({n, c, h, w}), dy({n, c, oh, ow});
                fill(x.data(), x.numel(), gen, special);
                // Coarse values make ties common: the first maximum wins.
                for (std::size_t i = 0; i < x.numel(); i += 3)
                    if (!std::isnan(x[i]))
                        x[i] = static_cast<float>(coarse(gen));
                fill(dy.data(), dy.numel(), gen, special);

                Tensor want_y(dy.shape());
                std::vector<std::size_t> argmax(dy.numel());
                maxPoolForwardOracle(x.data(), want_y.data(), argmax, n, c,
                                     h, w, k, oh, ow);
                // NaN fix on top of the oracle: a window holding a NaN
                // yields NaN and routes its gradient to the first NaN.
                std::size_t o = 0;
                for (std::size_t plane = 0; plane < n * c; ++plane) {
                    for (std::size_t oy = 0; oy < oh; ++oy) {
                        for (std::size_t ox = 0; ox < ow; ++ox, ++o) {
                            for (std::size_t ky = 0; ky < k; ++ky) {
                                for (std::size_t kx = 0; kx < k; ++kx) {
                                    const std::size_t idx =
                                        plane * h * w +
                                        (oy * k + ky) * w + ox * k + kx;
                                    if (std::isnan(x[idx]) &&
                                        !std::isnan(want_y[o])) {
                                        want_y[o] = x[idx];
                                        argmax[o] = idx;
                                    }
                                }
                            }
                        }
                    }
                }
                Tensor want_dx({n, c, h, w});
                for (std::size_t i = 0; i < argmax.size(); ++i)
                    want_dx[argmax[i]] += dy[i];

                const Tensor &y = layer.forward(x, true);
                EXPECT_TRUE(
                    sameBits(y.data(), want_y.data(), y.numel(), "y"));
                const Tensor &dx = layer.backward(dy);
                EXPECT_TRUE(
                    sameBits(dx.data(), want_dx.data(), dx.numel(), "dx"));
            }
        }
    }
}

} // namespace
} // namespace nn
} // namespace fedgpo
