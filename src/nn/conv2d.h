/**
 * @file
 * 2-d convolution (im2col + GEMM) over NCHW batches.
 */

#ifndef FEDGPO_NN_CONV2D_H_
#define FEDGPO_NN_CONV2D_H_

#include "nn/layer.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {

/**
 * Standard convolution with square kernels.
 *
 * Input  [n, in_c, h, w]
 * Output [n, out_c, oh, ow] with oh/ow from (extent + 2*pad - k)/stride + 1.
 *
 * The spatial input extent is fixed at construction time; the model zoo
 * builds networks for specific dataset geometries, which keeps the FLOP
 * accounting exact.
 */
class Conv2D : public Layer
{
  public:
    /**
     * @param in_c   Input channels.
     * @param out_c  Output channels (filters).
     * @param k      Square kernel extent.
     * @param h, w   Input spatial extents.
     * @param stride Stride in both dimensions.
     * @param pad    Zero padding on all sides.
     * @param rng    Initialization stream (He normal).
     */
    Conv2D(std::size_t in_c, std::size_t out_c, std::size_t k,
           std::size_t h, std::size_t w, std::size_t stride,
           std::size_t pad, util::Rng &rng);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Conv; }
    const Tensor &forward(const Tensor &in, bool train) override;
    std::vector<Tensor *> params() override { return {&weights_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    std::uint64_t flopsPerSample() const override;

    std::size_t outChannels() const { return out_c_; }
    std::size_t outHeight() const { return oh_; }
    std::size_t outWidth() const { return ow_; }

  private:
    const Tensor &backprop(const Tensor &grad_out,
                           bool input_grad) override;
    std::size_t in_c_, out_c_, k_, in_h_, in_w_, stride_, pad_;
    std::size_t oh_, ow_;
    Tensor weights_; //!< [in_c * k * k, out_c] (column-major filter bank)
    Tensor b_;   //!< [out_c]
    Tensor dw_;
    Tensor db_;
    Tensor dw_step_;    //!< backward scratch, reused across calls
    Tensor cols_;       //!< im2col scratch for the cached input
    Tensor gemm_out_;   //!< [n*oh*ow, out_c]
    Tensor out_buf_;    //!< [n, out_c, oh, ow]
    Tensor grad_cols_;
    Tensor grad_gemm_;
    Tensor grad_in_;
    std::size_t cached_n_ = 0;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_CONV2D_H_
