/**
 * @file
 * 2-d max pooling over NCHW batches.
 */

#ifndef FEDGPO_NN_POOL2D_H_
#define FEDGPO_NN_POOL2D_H_

#include "nn/layer.h"

namespace fedgpo {
namespace nn {

/**
 * Non-overlapping max pooling (kernel == stride).
 *
 * Input  [n, c, h, w] with h, w divisible by k.
 * Output [n, c, h/k, w/k]
 */
class MaxPool2D : public Layer
{
  public:
    /**
     * @param c    Channel count.
     * @param k    Pool window and stride.
     * @param h, w Input spatial extents (must be divisible by k).
     */
    MaxPool2D(std::size_t c, std::size_t k, std::size_t h, std::size_t w);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Pool; }
    const Tensor &forward(const Tensor &in, bool train) override;
    std::uint64_t flopsPerSample() const override;

    std::size_t outHeight() const { return oh_; }
    std::size_t outWidth() const { return ow_; }

  private:
    const Tensor &backprop(const Tensor &grad_out,
                           bool input_grad) override;
    std::size_t c_, k_, h_, w_, oh_, ow_;
    Tensor out_buf_;
    Tensor grad_in_;
    std::vector<std::size_t> argmax_;  //!< flat input index per output elem
    std::size_t cached_n_ = 0;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_POOL2D_H_
