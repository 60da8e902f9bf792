/**
 * @file
 * Layer interface of the from-scratch NN training library.
 *
 * Contract: forward(x) returns a reference to an internal output buffer
 * and caches what backward needs; backward(dy) must be called with the
 * gradient w.r.t. that output while the input passed to the immediately
 * preceding forward is still alive and unmodified (backwardParams(dy)
 * likewise). Model enforces this by owning the full activation chain.
 * Layers own their parameters and the matching gradient buffers;
 * gradients accumulate across backward calls until zeroGrad().
 */

#ifndef FEDGPO_NN_LAYER_H_
#define FEDGPO_NN_LAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedgpo {
namespace nn {

using tensor::Tensor;

/**
 * Coarse layer taxonomy.
 *
 * FedGPO's state features count convolutional, fully-connected, and
 * recurrent layers (paper Table 1), so the kind is part of the public
 * layer interface rather than an implementation detail.
 */
enum class LayerKind {
    Conv,        //!< Standard or depthwise convolution
    Dense,       //!< Fully-connected
    Recurrent,   //!< LSTM / RNN
    Activation,  //!< Elementwise nonlinearity
    Pool,        //!< Spatial pooling
    Reshape,     //!< Flatten and friends (no math)
};

/**
 * Abstract differentiable layer.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Short human-readable name, e.g. "conv3x3(1->8)". */
    virtual std::string name() const = 0;

    /** Taxonomic kind (see LayerKind). */
    virtual LayerKind kind() const = 0;

    /**
     * Run the layer on a batch and return its output.
     *
     * The returned reference points at a buffer owned by the layer and is
     * valid until the next forward() call on this layer.
     *
     * @param in    Input batch; first dimension is the batch size.
     * @param train True during training (enables any train-only behavior).
     */
    virtual const Tensor &forward(const Tensor &in, bool train) = 0;

    /**
     * Backpropagate through the layer.
     *
     * Accumulates parameter gradients and returns the gradient w.r.t. the
     * input of the preceding forward() call. The returned reference is
     * owned by the layer and valid until the next backward() call.
     */
    const Tensor &backward(const Tensor &grad_out)
    {
        return backprop(grad_out, /*input_grad=*/true);
    }

    /**
     * Backpropagate into the parameter gradients only.
     *
     * Accumulates exactly what backward() accumulates, bit for bit, but
     * skips the input gradient. Model::trainStep calls this on its first
     * layer with parameters: nothing reads that layer's input gradient.
     */
    void backwardParams(const Tensor &grad_out)
    {
        backprop(grad_out, /*input_grad=*/false);
    }

    /** Mutable views of the parameter tensors (possibly empty). */
    virtual std::vector<Tensor *> params() { return {}; }

    /** Gradient tensors, parallel to params(). */
    virtual std::vector<Tensor *> grads() { return {}; }

    /** Zero all gradient buffers. */
    void zeroGrad();

    /** Total number of scalar parameters. */
    std::size_t paramCount();

    /**
     * Analytic forward FLOPs for a single sample (multiply and add counted
     * separately, the convention of the paper's GFLOPS tables). Layers with
     * no arithmetic return 0.
     */
    virtual std::uint64_t flopsPerSample() const = 0;

  private:
    /**
     * The one backward pass behind backward() and backwardParams(): the
     * parameter gradients always, the input gradient when `input_grad`
     * is set. Without it the returned tensor's contents are unspecified.
     */
    virtual const Tensor &backprop(const Tensor &grad_out,
                                   bool input_grad) = 0;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_LAYER_H_
