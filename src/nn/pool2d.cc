#include "nn/pool2d.h"

#include <cassert>

#include "util/logging.h"

namespace fedgpo {
namespace nn {

MaxPool2D::MaxPool2D(std::size_t c, std::size_t k, std::size_t h,
                     std::size_t w)
    : c_(c), k_(k), h_(h), w_(w), oh_(h / k), ow_(w / k)
{
    if (h % k != 0 || w % k != 0) {
        util::fatal("MaxPool2D: input " + std::to_string(h) + "x" +
                    std::to_string(w) + " not divisible by window " +
                    std::to_string(k));
    }
}

std::string
MaxPool2D::name() const
{
    return "maxpool" + std::to_string(k_) + "x" + std::to_string(k_);
}

const Tensor &
MaxPool2D::forward(const Tensor &in, bool train)
{
    (void)train;
    assert(in.ndim() == 4);
    assert(in.dim(1) == c_ && in.dim(2) == h_ && in.dim(3) == w_);
    const std::size_t n = in.dim(0);
    cached_n_ = n;
    if (out_buf_.ndim() != 4 || out_buf_.dim(0) != n)
        out_buf_ = Tensor({n, c_, oh_, ow_});
    argmax_.resize(n * c_ * oh_ * ow_);
    const std::size_t k = k_, w = w_, plane = h_ * w_;
    const float *pi = in.data();
    float *po = out_buf_.data();
    std::size_t *am = argmax_.data();
    for (std::size_t p = 0; p < n * c_; ++p) {
        const float *x = pi + p * plane;
        for (std::size_t oy = 0; oy < oh_; ++oy) {
            for (std::size_t ox = 0; ox < ow_; ++ox, ++po, ++am) {
                std::size_t best = oy * k * w + ox * k;
                float best_v = x[best];
                float sum = 0.0f; // NaN if the window holds a NaN
                for (std::size_t ky = 0; ky < k; ++ky) {
                    const std::size_t row = (oy * k + ky) * w + ox * k;
                    for (std::size_t kx = 0; kx < k; ++kx) {
                        // Selects, not branches (gcc emits maxss + cmov).
                        // Only a strictly greater value replaces the best,
                        // so the first maximum is kept.
                        const float v = x[row + kx];
                        sum += v;
                        best = v > best_v ? row + kx : best;
                        best_v = v > best_v ? v : best_v;
                    }
                }
                // `>` never selects a NaN. A NaN sum (a NaN in the window,
                // or Inf + -Inf) rescans the window: its first NaN, if
                // any, is the output.
                if (sum != sum) {
                    for (std::size_t t = k * k; t-- > 0;) {
                        const std::size_t idx =
                            (oy * k + t / k) * w + ox * k + t % k;
                        if (x[idx] != x[idx])
                            best = idx;
                    }
                    best_v = x[best];
                }
                *po = best_v;
                *am = p * plane + best;
            }
        }
    }
    return out_buf_;
}

const Tensor &
MaxPool2D::backprop(const Tensor &grad_out, bool)
{
    const std::size_t n = cached_n_;
    assert(n > 0);
    assert(grad_out.numel() == argmax_.size());
    if (grad_in_.ndim() != 4 || grad_in_.dim(0) != n)
        grad_in_ = Tensor({n, c_, h_, w_});
    grad_in_.zero();
    float *pdi = grad_in_.data();
    const float *pg = grad_out.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i)
        pdi[argmax_[i]] += pg[i];
    return grad_in_;
}

std::uint64_t
MaxPool2D::flopsPerSample() const
{
    // One comparison per window element; count comparisons as FLOPs.
    return static_cast<std::uint64_t>(c_) * oh_ * ow_ * k_ * k_;
}

} // namespace nn
} // namespace fedgpo
