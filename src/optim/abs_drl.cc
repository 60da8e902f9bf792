#include "optim/abs_drl.h"

#include <algorithm>
#include <cassert>

#include "core/action_space.h"

namespace fedgpo {
namespace optim {

const tensor::Tensor &
AbsOptimizer::QNetwork::forward(const tensor::Tensor &x)
{
    return fc2.forward(relu.forward(fc1.forward(x, false), false), false);
}

void
AbsOptimizer::QNetwork::train(const tensor::Tensor &x, std::size_t action,
                              double target)
{
    const tensor::Tensor &q = forward(x);
    // MSE on the chosen action only: dL/dq_a = (q_a - target).
    tensor::Tensor grad(q.shape());
    grad[action] = static_cast<float>(q[action] - target);
    const tensor::Tensor *g = &fc2.backward(grad);
    g = &relu.backward(*g);
    fc1.backwardParams(*g);
    for (nn::Layer *layer : {static_cast<nn::Layer *>(&fc1),
                             static_cast<nn::Layer *>(&fc2)}) {
        auto params = layer->params();
        auto grads = layer->grads();
        for (std::size_t i = 0; i < params.size(); ++i) {
            params[i]->addScaled(*grads[i], -static_cast<float>(kLr));
            grads[i]->zero();
        }
    }
}

AbsOptimizer::AbsOptimizer(std::uint64_t seed, int epochs, int clients)
    : rng_(seed), epochs_(epochs), clients_(clients)
{
    util::Rng init = rng_.split(1);
    qnet_ = std::make_unique<QNetwork>(kFeatures, 24,
                                       core::kBatchSet.size(), init);
}

tensor::Tensor
AbsOptimizer::featurize(const fl::DeviceObservation &obs)
{
    tensor::Tensor x({1, kFeatures});
    const auto cat = static_cast<std::size_t>(obs.category);
    x[cat] = 1.0f;  // category one-hot (3)
    x[3] = static_cast<float>(obs.interference.co_cpu);
    x[4] = static_cast<float>(obs.interference.co_mem);
    x[5] = static_cast<float>(obs.network.bandwidth_mbps / 100.0);
    x[6] = obs.total_classes > 0
               ? static_cast<float>(obs.data_classes) /
                     static_cast<float>(obs.total_classes)
               : 0.0f;
    return x;
}

int
AbsOptimizer::chooseClients(int max_k)
{
    return std::min(clients_, max_k);
}

std::vector<fl::PerDeviceParams>
AbsOptimizer::assign(const std::vector<fl::DeviceObservation> &devices,
                     const nn::LayerCensus &census)
{
    (void)census;
    pending_.clear();
    std::vector<fl::PerDeviceParams> out;
    out.reserve(devices.size());
    for (const auto &obs : devices) {
        tensor::Tensor x = featurize(obs);
        std::size_t action;
        if (rng_.uniform() < kEpsilon) {
            action = rng_.index(core::kBatchSet.size());
        } else {
            const tensor::Tensor &q = qnet_->forward(x);
            action = 0;
            for (std::size_t a = 1; a < core::kBatchSet.size(); ++a)
                if (q[a] > q[action])
                    action = a;
        }
        out.push_back(
            fl::PerDeviceParams{core::kBatchSet[action], epochs_});
        pending_.push_back(Decision{obs.client_id, std::move(x), action});
    }
    return out;
}

void
AbsOptimizer::feedback(const fl::RoundResult &result)
{
    global_norm_.observe(result.energy_total);
    const double e_global = global_norm_.normalize(result.energy_total);
    for (const auto &p : result.participants) {
        local_norm_.observe(p.cost.e_total);
        const double e_local = local_norm_.normalize(p.cost.e_total);
        double reward =
            core::fedgpoReward(e_global, e_local, result.test_accuracy,
                               accuracy_prev_);
        if (p.dropped)
            reward = result.test_accuracy * 100.0 - 100.0;
        for (auto &d : pending_) {
            if (d.client_id == p.client_id) {
                // One-step TD target bootstrapped on the same state
                // (device states persist across rounds).
                const tensor::Tensor &q = qnet_->forward(d.features);
                double max_q = q[0];
                for (std::size_t a = 1; a < core::kBatchSet.size(); ++a)
                    max_q = std::max(max_q, static_cast<double>(q[a]));
                qnet_->train(d.features, d.action,
                             reward + kDiscount * max_q);
                break;
            }
        }
    }
    accuracy_prev_ = result.test_accuracy;
    pending_.clear();
}

} // namespace optim
} // namespace fedgpo
