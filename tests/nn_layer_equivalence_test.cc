/**
 * @file
 * Differential tests for the layers rewritten for speed: DepthwiseConv2D
 * forward/backward, ReLU backward and MaxPool2D forward on the MobileNet
 * training path, and the LSTM with its hoisted input projection.
 *
 * Each layer is checked against a test-local oracle: the code the layer
 * ran before it was restructured, kept verbatim. The rewrite promises that
 * every output and gradient element folds the same terms in the same
 * order, so the results must agree bit for bit for any geometry and
 * input, non-finite inputs included. Any NaN counts as equal to any NaN
 * (payloads may differ); NaN-ness and every other bit may not.
 *
 * Model::trainStep skips the input gradient of its first trainable layer
 * (Layer::backwardParams); the TrainStep tests check that the parameter
 * gradients still equal those of a full backward chain bit for bit.
 *
 * MaxPool2D's oracle masks a NaN that is not first in its window (x > best
 * is false for NaN); the layer now propagates it, so on windows holding a
 * NaN the expectation is NaN out and the gradient routed to the first NaN.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "nn/lstm.h"
#include "nn/model.h"
#include "nn/pool2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {
namespace {

using tensor::Shape;
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

/**
 * LSTM forward/backward before the input projection was hoisted, verbatim
 * apart from the class frame: one x_t Wx GEMM per step, the input gradient
 * accumulated per step through matmulTransB(dpre, Wx), the hidden gradient
 * through matmulTransB(dpre, Wh).
 */
class LstmOracle
{
  public:
    LstmOracle(LSTM &layer, std::size_t in, std::size_t hidden,
               std::size_t steps)
        : in_(in), hidden_(hidden), steps_(steps),
          wx_(*layer.params()[0]), wh_(*layer.params()[1]),
          b_(*layer.params()[2]), dwx_(*layer.grads()[0]),
          dwh_(*layer.grads()[1]), db_(*layer.grads()[2])
    {
    }

    const Tensor &forward(const Tensor &in);
    const Tensor &backward(const Tensor &grad_out);

    std::size_t in_, hidden_, steps_;
    Tensor wx_, wh_, b_;
    Tensor dwx_, dwh_, db_;

  private:
    static float
    sigmoid(float x)
    {
        return 1.0f / (1.0f + std::exp(-x));
    }

    std::vector<Tensor> xs_, hs_, cs_, gates_, tanh_c_;
    Tensor pre_x_, pre_h_, out_buf_, grad_in_;
    Tensor dh_, dc_, dpre_, dwx_step_, dwh_step_, dx_step_;
    std::size_t cached_n_ = 0;
    std::size_t alloc_n_ = 0;
};

const Tensor &
LstmOracle::forward(const Tensor &in)
{
    const std::size_t n = in.dim(0);
    cached_n_ = n;
    const std::size_t h4 = 4 * hidden_;

    if (alloc_n_ != n) {
        xs_.assign(steps_, Tensor({n, in_}));
        hs_.assign(steps_ + 1, Tensor({n, hidden_}));
        cs_.assign(steps_ + 1, Tensor({n, hidden_}));
        gates_.assign(steps_, Tensor({n, h4}));
        tanh_c_.assign(steps_, Tensor({n, hidden_}));
        alloc_n_ = n;
    } else {
        hs_[0].zero();
        cs_[0].zero();
    }

    for (std::size_t t = 0; t < steps_; ++t) {
        for (std::size_t r = 0; r < n; ++r) {
            const float *src = in.data() + (r * steps_ + t) * in_;
            float *dst = xs_[t].data() + r * in_;
            std::copy(src, src + in_, dst);
        }
        tensor::matmul(xs_[t], wx_, pre_x_);
        tensor::matmul(hs_[t], wh_, pre_h_);
        float *pg = gates_[t].data();
        const float *px = pre_x_.data();
        const float *ph = pre_h_.data();
        const float *pb = b_.data();
        const float *pc_prev = cs_[t].data();
        float *pc = cs_[t + 1].data();
        float *phn = hs_[t + 1].data();
        float *ptc = tanh_c_[t].data();
        for (std::size_t r = 0; r < n; ++r) {
            const std::size_t row = r * h4;
            for (std::size_t j = 0; j < h4; ++j) {
                float pre = px[row + j] + ph[row + j] + pb[j];
                if (j >= 2 * hidden_ && j < 3 * hidden_)
                    pg[row + j] = std::tanh(pre);
                else
                    pg[row + j] = sigmoid(pre);
            }
            const float *gi = pg + row;
            const float *gf = gi + hidden_;
            const float *gg = gf + hidden_;
            const float *go = gg + hidden_;
            for (std::size_t j = 0; j < hidden_; ++j) {
                float c = gf[j] * pc_prev[r * hidden_ + j] + gi[j] * gg[j];
                pc[r * hidden_ + j] = c;
                float tc = std::tanh(c);
                ptc[r * hidden_ + j] = tc;
                phn[r * hidden_ + j] = go[j] * tc;
            }
        }
    }
    out_buf_ = hs_[steps_];
    return out_buf_;
}

const Tensor &
LstmOracle::backward(const Tensor &grad_out)
{
    const std::size_t n = cached_n_;
    const std::size_t h4 = 4 * hidden_;

    if (grad_in_.ndim() != 3 || grad_in_.dim(0) != n)
        grad_in_ = Tensor({n, steps_, in_});
    grad_in_.zero();

    if (dh_.ndim() != 2 || dh_.dim(0) != n) {
        dh_ = Tensor({n, hidden_});
        dc_ = Tensor({n, hidden_});
        dpre_ = Tensor({n, h4});
    } else {
        dc_.zero();
    }
    std::copy(grad_out.data(), grad_out.data() + n * hidden_, dh_.data());

    for (std::size_t t = steps_; t-- > 0;) {
        const float *pg = gates_[t].data();
        const float *ptc = tanh_c_[t].data();
        const float *pc_prev = cs_[t].data();
        const float *pdh = dh_.data();
        float *pdc = dc_.data();
        float *pdp = dpre_.data();
        for (std::size_t r = 0; r < n; ++r) {
            const std::size_t row = r * h4;
            const float *gi = pg + row;
            const float *gf = gi + hidden_;
            const float *gg = gf + hidden_;
            const float *go = gg + hidden_;
            float *dpi = pdp + row;
            float *dpf = dpi + hidden_;
            float *dpg = dpf + hidden_;
            float *dpo = dpg + hidden_;
            for (std::size_t j = 0; j < hidden_; ++j) {
                const std::size_t idx = r * hidden_ + j;
                const float tc = ptc[idx];
                const float dho = pdh[idx];
                const float d_o = dho * tc;
                float d_c = pdc[idx] + dho * go[j] * (1.0f - tc * tc);
                const float d_i = d_c * gg[j];
                const float d_f = d_c * pc_prev[idx];
                const float d_g = d_c * gi[j];
                dpi[j] = d_i * gi[j] * (1.0f - gi[j]);
                dpf[j] = d_f * gf[j] * (1.0f - gf[j]);
                dpg[j] = d_g * (1.0f - gg[j] * gg[j]);
                dpo[j] = d_o * go[j] * (1.0f - go[j]);
                pdc[idx] = d_c * gf[j];
            }
        }
        tensor::matmulTransA(xs_[t], dpre_, dwx_step_);
        dwx_ += dwx_step_;
        tensor::matmulTransA(hs_[t], dpre_, dwh_step_);
        dwh_ += dwh_step_;
        float *pdb = db_.data();
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t j = 0; j < h4; ++j)
                pdb[j] += pdp[r * h4 + j];
        tensor::matmulTransB(dpre_, wx_, dx_step_);  // [n, in]
        for (std::size_t r = 0; r < n; ++r) {
            float *dst = grad_in_.data() + (r * steps_ + t) * in_;
            const float *src = dx_step_.data() + r * in_;
            for (std::size_t j = 0; j < in_; ++j)
                dst[j] += src[j];
        }
        tensor::matmulTransB(dpre_, wh_, dh_);
    }
    return grad_in_;
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

/**
 * Finite values in [-2, 2]; with `special`, one each of +Inf, -Inf, NaN
 * and -0 at random positions. Sparse on purpose: a NaN poisons every row
 * it reaches, so a dense sprinkling would leave only NaN to compare.
 */
void
fillSparse(Tensor &t, std::mt19937 &gen, bool special)
{
    fill(t.data(), t.numel(), gen, false);
    if (!special)
        return;
    std::uniform_int_distribution<std::size_t> at(0, t.numel() - 1);
    for (float v : {kInf, -kInf, kNaN, -0.0f})
        t[at(gen)] = v;
}

/**
 * The LSTM against its oracle at one (batch, steps) point: two rounds of
 * forward + backward on the same objects, so the second round runs on
 * reused scratch. A twin layer takes backwardParams() instead and must
 * accumulate the same parameter gradients.
 */
void
checkLstm(std::size_t n, std::size_t steps, std::size_t in,
          std::size_t hidden, bool special, std::mt19937 &gen)
{
    SCOPED_TRACE("n=" + std::to_string(n) + " T=" + std::to_string(steps) +
                 " in=" + std::to_string(in) + " hidden=" +
                 std::to_string(hidden) +
                 (special ? " (Inf/NaN/-0 inputs)" : " (finite inputs)"));
    util::Rng rng(3);
    LSTM full(in, hidden, steps, rng);
    for (Tensor *g : full.grads()) {
        // Gradients accumulate onto what is already there, -0 included.
        fill(g->data(), g->numel(), gen, false);
        (*g)[0] = -0.0f;
    }
    util::Rng rng_twin(3);
    LSTM params_only(in, hidden, steps, rng_twin);
    for (std::size_t i = 0; i < 3; ++i)
        *params_only.grads()[i] = *full.grads()[i];
    LstmOracle oracle(full, in, hidden, steps);
    const char *names[3] = {"dWx", "dWh", "db"};

    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        Tensor x({n, steps, in}), dy({n, hidden});
        fillSparse(x, gen, special);
        fillSparse(dy, gen, special);

        const Tensor &want_y = oracle.forward(x);
        const Tensor &y = full.forward(x, true);
        ASSERT_EQ(y.shape(), want_y.shape());
        EXPECT_TRUE(sameBits(y.data(), want_y.data(), y.numel(), "y"));
        params_only.forward(x, true);

        const Tensor &want_dx = oracle.backward(dy);
        const Tensor &dx = full.backward(dy);
        ASSERT_EQ(dx.shape(), want_dx.shape());
        EXPECT_TRUE(sameBits(dx.data(), want_dx.data(), dx.numel(), "dx"));
        params_only.backwardParams(dy);

        const Tensor *want[3] = {&oracle.dwx_, &oracle.dwh_, &oracle.db_};
        for (std::size_t i = 0; i < 3; ++i) {
            const Tensor &got = *full.grads()[i];
            const Tensor &twin = *params_only.grads()[i];
            EXPECT_TRUE(sameBits(got.data(), want[i]->data(), got.numel(),
                                 names[i]));
            EXPECT_TRUE(sameBits(twin.data(), want[i]->data(),
                                 twin.numel(),
                                 std::string(names[i]) + " (params only)"));
        }
    }
}

TEST(LayerEquivalence, LstmMatchesOracleOverBatchesAndSteps)
{
    std::mt19937 gen(20261019);
    int checked = 0;
    for (std::size_t n : {1, 2, 3, 5, 8, 32}) {
        for (std::size_t steps : {1, 3, 16}) {
            for (bool special : {false, true}) {
                // An odd shape that leaves partial GEMM tiles, and the zoo's.
                checkLstm(n, steps, 5, 3, special, gen);
                checkLstm(n, steps, 28, 32, special, gen);
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 6 * 3 * 2);
}

/**
 * Model::trainStep (backward ends with backwardParams() on the first
 * trainable layer) against a twin model that runs backward() through
 * every layer: parameter gradients and loss must match bit for bit. Two
 * steps of different batch sizes, so the second runs on resized scratch
 * and accumulates onto the first step's gradients.
 */
void
checkTrainStep(Model &model, Model &twin, const Shape &sample,
               std::size_t classes, std::mt19937 &gen)
{
    for (std::size_t n : {5, 3}) {
        SCOPED_TRACE("batch " + std::to_string(n));
        Shape shape = sample;
        shape.insert(shape.begin(), n);
        Tensor x(shape);
        fill(x.data(), x.numel(), gen, false);
        std::uniform_int_distribution<int> label(
            0, static_cast<int>(classes) - 1);
        std::vector<int> labels(n);
        for (int &l : labels)
            l = label(gen);

        const double loss = model.trainStep(x, labels);

        const Tensor &logits = twin.forward(x, /*train=*/true);
        const double want_loss = twin.loss().forward(logits, labels);
        const Tensor *g = &twin.loss().backward();
        for (std::size_t i = twin.size(); i-- > 0;)
            g = &twin.layer(i).backward(*g);

        EXPECT_EQ(loss, want_loss);
        const std::vector<Tensor *> got = model.grads();
        const std::vector<Tensor *> want = twin.grads();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(sameBits(got[i]->data(), want[i]->data(),
                                 got[i]->numel(),
                                 "grad " + std::to_string(i)));
    }
}

TEST(LayerEquivalence, TrainStepMatchesFullBackwardOnZooModels)
{
    std::mt19937 gen(29);
    for (models::Workload w : models::kAllWorkloads) {
        SCOPED_TRACE(models::workloadName(w));
        auto model = models::buildModel(w, 17);
        auto twin = models::buildModel(w, 17);
        checkTrainStep(*model, *twin, models::sampleShape(w),
                       models::numClasses(w), gen);
    }
}

TEST(LayerEquivalence, TrainStepMatchesFullBackwardBehindParameterlessLayer)
{
    // Flatten has no parameters: trainStep skips it and gives Dense
    // backwardParams().
    std::mt19937 gen(31);
    Model model, twin;
    for (Model *m : {&model, &twin}) {
        util::Rng rng(5);
        m->add(std::make_unique<Flatten>());
        m->add(std::make_unique<Dense>(12, 4, rng));
    }
    checkTrainStep(model, twin, {3, 2, 2}, 4, gen);
}

} // namespace
} // namespace nn
} // namespace fedgpo
