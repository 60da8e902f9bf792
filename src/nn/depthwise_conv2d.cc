#include "nn/depthwise_conv2d.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "nn/init.h"
#include "tensor/ops.h"

namespace fedgpo {
namespace nn {

DepthwiseConv2D::DepthwiseConv2D(std::size_t c, std::size_t k,
                                 std::size_t h, std::size_t w,
                                 std::size_t stride, std::size_t pad,
                                 util::Rng &rng)
    : c_(c), k_(k), in_h_(h), in_w_(w), stride_(stride), pad_(pad),
      oh_(tensor::convOutExtent(h, k, stride, pad)),
      ow_(tensor::convOutExtent(w, k, stride, pad)),
      weights_({c, k, k}), b_({c}), dw_({c, k, k}), db_({c}),
      saved_(std::max(oh_ * ow_, h * w))
{
    heNormal(weights_, k * k, rng);
}

std::string
DepthwiseConv2D::name() const
{
    return "dwconv" + std::to_string(k_) + "x" + std::to_string(k_) + "(" +
           std::to_string(c_) + ")";
}

namespace {

/** Channels whose weight-gradient chains advance together in backward(). */
constexpr std::size_t kChains = 4;

/**
 * The output range [lo, hi) over which one kernel tap stays inside the
 * input: the o in [0, out) with 0 <= o * stride + tap - pad < in.
 */
void
tapRange(std::size_t tap, std::size_t in, std::size_t out,
         std::size_t stride, std::size_t pad, std::size_t &lo,
         std::size_t &hi)
{
    lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
    hi = in + pad <= tap ? 0 : (in + pad - tap - 1) / stride + 1;
    hi = std::min(hi, out);
    lo = std::min(lo, hi);
}

/**
 * Copies columns [0, lo) and [hi, width) of rows [r0, r1) of a plane to
 * `saved`, or back from it when `restore` is set.
 */
void
borderColumns(float *plane, std::size_t width, std::size_t r0,
              std::size_t r1, std::size_t lo, std::size_t hi, float *saved,
              bool restore)
{
    for (std::size_t col = 0; col < width; ++col) {
        if (col == lo)
            col = hi;
        if (col >= width)
            break;
        for (std::size_t r = r0; r < r1; ++r, ++saved) {
            float &v = plane[r * width + col];
            if (restore)
                v = *saved;
            else
                *saved = v;
        }
    }
}

} // namespace

const Tensor &
DepthwiseConv2D::forward(const Tensor &in, bool train)
{
    (void)train;
    assert(in.ndim() == 4);
    assert(in.dim(1) == c_ && in.dim(2) == in_h_ && in.dim(3) == in_w_);
    const std::size_t n = in.dim(0);
    cached_in_ = &in;
    if (out_buf_.ndim() != 4 || out_buf_.dim(0) != n)
        out_buf_ = Tensor({n, c_, oh_, ow_});
    const std::size_t k = k_, s = stride_, pad = pad_;
    // Each output element folds the bias, then its in-bounds taps in
    // ascending (ky, kx) order, one tap per pass over the plane. A pass
    // is one multiply-add loop per row over the tap's in-bounds columns.
    // With stride 1 and ow == w, rows are contiguous in both x and y, so
    // one loop covers all the tap's rows. That loop also reaches the
    // columns the tap must skip, so they are saved before the pass and
    // restored after it.
    const bool flat = s == 1 && ow_ == in_w_;
    for (std::size_t p = 0; p < n * c_; ++p) {
        const std::size_t ch = p % c_;
        const float *x = in.data() + p * in_h_ * in_w_;
        const float *f = weights_.data() + ch * k * k;
        float *y = out_buf_.data() + p * oh_ * ow_;
        std::fill(y, y + oh_ * ow_, b_.data()[ch]);
        for (std::size_t ky = 0; ky < k; ++ky) {
            std::size_t r0, r1;
            tapRange(ky, in_h_, oh_, s, pad, r0, r1);
            for (std::size_t kx = 0; kx < k && r0 < r1; ++kx) {
                std::size_t lo, hi;
                tapRange(kx, in_w_, ow_, s, pad, lo, hi);
                if (lo == hi)
                    continue;
                const float fv = f[ky * k + kx];
                if (flat)
                    borderColumns(y, ow_, r0, r1, lo, hi, saved_.data(),
                                  false);
                for (std::size_t r = r0; r < r1; r = flat ? r1 : r + 1) {
                    const std::size_t count =
                        ((flat ? r1 - 1 : r) - r) * ow_ + hi - lo;
                    float *__restrict yp = y + (r * ow_ + lo);
                    const float *__restrict xp =
                        x + ((r * s + ky - pad) * in_w_ + lo * s + kx - pad);
                    for (std::size_t i = 0; i < count; ++i)
                        yp[i] += fv * xp[i * s];
                }
                if (flat)
                    borderColumns(y, ow_, r0, r1, lo, hi, saved_.data(),
                                  true);
            }
        }
    }
    return out_buf_;
}

const Tensor &
DepthwiseConv2D::backprop(const Tensor &grad_out, bool input_grad)
{
    assert(cached_in_ != nullptr);
    const Tensor &in = *cached_in_;
    const std::size_t n = in.dim(0);
    assert(grad_out.ndim() == 4 && grad_out.dim(0) == n);
    assert(grad_out.dim(1) == c_);
    const std::size_t k = k_, s = stride_, pad = pad_;
    const std::size_t plane = in_h_ * in_w_, oplane = oh_ * ow_;

    if (input_grad)
        inputGrad(grad_out);

    // df, db: one chain per (channel, tap) and one per channel for the
    // bias, each ascending (img, oy, ox) over the positions where it is
    // in bounds. A tap's in-bounds positions form a rectangle, the same
    // for every channel, so the chains of kChains channels advance
    // together over it in registers and their adds overlap; no position
    // needs a bounds check. A group past the last channel repeats it, and
    // those sums are dropped. No zero-skip: g == 0 still multiplies the
    // inputs, so 0 * Inf / 0 * NaN reaches the weight gradient instead of
    // masking divergence.
    for (std::size_t c0 = 0; c0 < c_; c0 += kChains) {
        std::size_t chs[kChains];
        for (std::size_t j = 0; j < kChains; ++j)
            chs[j] = std::min(c0 + j, c_ - 1);
        const std::size_t live = std::min(kChains, c_ - c0);
        float acc[kChains];
        for (std::size_t j = 0; j < kChains; ++j)
            acc[j] = db_.data()[chs[j]];
        for (std::size_t img = 0; img < n; ++img) {
            const float *dy[kChains];
            for (std::size_t j = 0; j < kChains; ++j)
                dy[j] = grad_out.data() + (img * c_ + chs[j]) * oplane;
            for (std::size_t q = 0; q < oplane; ++q)
                for (std::size_t j = 0; j < kChains; ++j)
                    acc[j] += dy[j][q];
        }
        for (std::size_t j = 0; j < live; ++j)
            db_.data()[c0 + j] = acc[j];

        for (std::size_t t = 0; t < k * k; ++t) {
            const std::size_t ky = t / k, kx = t % k;
            std::size_t r0, r1, lo, hi;
            tapRange(ky, in_h_, oh_, s, pad, r0, r1);
            tapRange(kx, in_w_, ow_, s, pad, lo, hi);
            if (r0 == r1 || lo == hi)
                continue;
            for (std::size_t j = 0; j < kChains; ++j)
                acc[j] = dw_.data()[chs[j] * k * k + t];
            for (std::size_t img = 0; img < n; ++img) {
                for (std::size_t oy = r0; oy < r1; ++oy) {
                    const float *gr[kChains], *xr[kChains];
                    for (std::size_t j = 0; j < kChains; ++j) {
                        const std::size_t p = img * c_ + chs[j];
                        gr[j] = grad_out.data() + (p * oplane + oy * ow_ + lo);
                        xr[j] = in.data() + (p * plane +
                                             (oy * s + ky - pad) * in_w_ +
                                             lo * s + kx - pad);
                    }
                    for (std::size_t i = 0; i < hi - lo; ++i)
                        for (std::size_t j = 0; j < kChains; ++j)
                            acc[j] += gr[j][i] * xr[j][i * s];
                }
            }
            for (std::size_t j = 0; j < live; ++j)
                dw_.data()[(c0 + j) * k * k + t] = acc[j];
        }
    }
    return grad_in_;
}

void
DepthwiseConv2D::inputGrad(const Tensor &grad_out)
{
    const std::size_t n = grad_out.dim(0);
    if (grad_in_.ndim() != 4 || grad_in_.dim(0) != n)
        grad_in_ = Tensor({n, c_, in_h_, in_w_});
    grad_in_.zero();
    const std::size_t k = k_, s = stride_, pad = pad_;
    const std::size_t plane = in_h_ * in_w_, oplane = oh_ * ow_;

    // dx: every element starts at +0 and adds its taps in descending
    // (ky, kx) order, the order in which an ascending (oy, ox) scatter
    // delivers them. One tap per pass, laid out as in forward().
    const bool flat = s == 1 && ow_ == in_w_;
    for (std::size_t p = 0; p < n * c_; ++p) {
        const std::size_t ch = p % c_;
        const float *dy = grad_out.data() + p * oplane;
        const float *f = weights_.data() + ch * k * k;
        float *dx = grad_in_.data() + p * plane;
        for (std::size_t ky = k; ky-- > 0;) {
            std::size_t r0, r1;
            tapRange(ky, in_h_, oh_, s, pad, r0, r1);
            for (std::size_t kx = k; kx-- > 0 && r0 < r1;) {
                std::size_t lo, hi;
                tapRange(kx, in_w_, ow_, s, pad, lo, hi);
                if (lo == hi)
                    continue;
                const float fv = f[ky * k + kx];
                // In flat mode the x rows of this tap are r0 + ky - pad on,
                // and its x columns lo + kx - pad up to hi + kx - pad.
                const std::size_t xr0 = r0 + ky - pad, xlo = lo + kx - pad;
                if (flat)
                    borderColumns(dx, in_w_, xr0, xr0 + r1 - r0, xlo,
                                  xlo + hi - lo, saved_.data(), false);
                for (std::size_t r = r0; r < r1; r = flat ? r1 : r + 1) {
                    const std::size_t count =
                        ((flat ? r1 - 1 : r) - r) * ow_ + hi - lo;
                    float *__restrict dp =
                        dx + ((r * s + ky - pad) * in_w_ + lo * s + kx - pad);
                    const float *__restrict gp = dy + (r * ow_ + lo);
                    for (std::size_t i = 0; i < count; ++i)
                        dp[i * s] += gp[i] * fv;
                }
                if (flat)
                    borderColumns(dx, in_w_, xr0, xr0 + r1 - r0, xlo,
                                  xlo + hi - lo, saved_.data(), true);
            }
        }
    }
}

std::uint64_t
DepthwiseConv2D::flopsPerSample() const
{
    const std::uint64_t macs =
        static_cast<std::uint64_t>(oh_) * ow_ * c_ * k_ * k_;
    return 2ULL * macs + static_cast<std::uint64_t>(oh_) * ow_ * c_;
}

} // namespace nn
} // namespace fedgpo
