/**
 * @file
 * The per-dispatch lifecycle both server loops share. A dispatch is one
 * server->client->server exchange: the sync RoundEngine runs one per
 * cohort slot, the async EventPump one per dispatch. Both call these
 * functions, so their training, traffic, cost, proration, divergence
 * and idle-energy numbers cannot drift apart. The stream and trace keys
 * stay with the caller: (round, cohort slot) in Sync, (creation epoch,
 * dispatch seq) in Async.
 */

#ifndef FEDGPO_FL_DISPATCH_H_
#define FEDGPO_FL_DISPATCH_H_

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "data/dataset.h"
#include "device/cost_model.h"
#include "fl/types.h"
#include "fleet/client.h"
#include "obs/tracing/trace.h"
#include "runtime/worker_context.h"
#include "util/rng.h"

namespace fedgpo {
namespace fl {
namespace dispatch {

/**
 * Record one causal trace event keyed (round, dispatch, client).
 * Self-gating: one relaxed mode load when tracing is off.
 */
void trace(obs::tracing::EventKind kind, std::int32_t round,
           std::uint64_t dispatch, std::size_t client, double vt,
           obs::tracing::Reason reason = obs::tracing::Reason::None,
           std::int64_t aux = -1, double value = 0.0,
           std::uint64_t bytes = 0);

/**
 * The codec an update is round-tripped through: null for no codec and
 * for Identity, whose round trip is the identity by construction.
 */
const comm::UpdateCodec *encoder(const comm::UpdateCodec *codec);

/**
 * Upload size of an n-parameter update: the codec's payloadBytes(n),
 * which every encode() reproduces (so it is known before training), or
 * the full `param_bytes` without one.
 */
std::uint64_t uploadBytes(const comm::UpdateCodec *codec, std::size_t n,
                          std::size_t param_bytes);

/** What one training job reads besides the globals (non-owning). */
struct TrainJob
{
    fleet::Client *client = nullptr;
    const data::Dataset *train_set = nullptr;
    runtime::WorkerContextPool *workers = nullptr;
    PerDeviceParams params;
    double lr = 0.0;
    /** Share of the (B, E) step budget run before a crash or churn. */
    double work_fraction = 1.0;
    /** See encoder(); null when nothing is uploaded encoded. */
    const comm::UpdateCodec *codec = nullptr;
    util::Rng train_rng;
    util::Rng comm_rng;
    std::int32_t round = 0;     //!< trace key
    std::uint64_t dispatch = 0; //!< trace key
};

/**
 * The training job, on `worker`'s scratch model: load `globals`, train,
 * record the Train event, then encode and decode the delta against the
 * same globals, so the result is exactly what the server receives. It
 * touches only its own client (the codec residual) and streams.
 */
fleet::Client::UpdateResult train(TrainJob &job,
                                  const std::vector<float> &globals,
                                  std::size_t worker);

/**
 * A dispatch's report: the client's identity and runtime state, its
 * (B, E), its traffic, and the modeled cost of its local work, a
 * `param_bytes` download and a `bytes_up` upload (0: never uploads; the
 * cost model then prices the uncompressed size).
 */
ClientRoundReport costReport(const fleet::Client &c,
                             const PerDeviceParams &params,
                             std::uint64_t bytes_up,
                             const device::WorkloadCost &workload,
                             std::uint64_t train_flops,
                             std::size_t param_bytes);

/**
 * Cut a report to a device lost after `fraction` of its work (crashed
 * in Sync, churned in Async): the completed compute and the download
 * leg stay charged, the upload goes, and the report is dropped for
 * `reason` at update_scale = fraction.
 */
void prorate(ClientRoundReport &report, double fraction, DropReason reason);

/** False when an update holds a non-finite weight (it diverged). */
bool isFinite(const std::vector<float> &weights);

/**
 * Idle energy over `round_time` of the fleet's devices not in
 * `involved`: one add per idle device in ascending id order, each the
 * precomputed term of its tier (tiers are contiguous id ranges).
 */
double tierIdleEnergy(std::size_t fleet, double round_time,
                      std::vector<std::size_t> involved);

} // namespace dispatch
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_DISPATCH_H_
