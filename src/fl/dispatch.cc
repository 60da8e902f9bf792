#include "fl/dispatch.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "device/power_model.h"

namespace fedgpo {
namespace fl {
namespace dispatch {

namespace trc = obs::tracing;

void
trace(trc::EventKind kind, std::int32_t round, std::uint64_t dispatch,
      std::size_t client, double vt, trc::Reason reason, std::int64_t aux,
      double value, std::uint64_t bytes)
{
    if (!trc::enabled())
        return;
    trc::TraceEvent e;
    e.kind = kind;
    e.reason = reason;
    e.round = round;
    e.dispatch = dispatch;
    e.client = client;
    e.virtual_ts = vt;
    e.aux = aux;
    e.value = value;
    e.bytes = bytes;
    trc::Tracer::instance().record(e);
}

const comm::UpdateCodec *
encoder(const comm::UpdateCodec *codec)
{
    return codec != nullptr && codec->kind() != comm::Codec::Identity
               ? codec
               : nullptr;
}

std::uint64_t
uploadBytes(const comm::UpdateCodec *codec, std::size_t n,
            std::size_t param_bytes)
{
    const comm::UpdateCodec *enc = encoder(codec);
    return enc != nullptr ? enc->payloadBytes(n)
                          : static_cast<std::uint64_t>(param_bytes);
}

fleet::Client::UpdateResult
train(TrainJob &job, const std::vector<float> &globals, std::size_t worker)
{
    const bool traced = trc::enabled();
    trc::Tracer &tracer = trc::Tracer::instance();
    const std::uint64_t t0 = traced ? tracer.hostNowNs() : 0;
    nn::Model &scratch = *job.workers->acquire(worker).model;
    scratch.loadParams(globals);
    fleet::Client::UpdateResult update =
        job.client->localTrain(scratch, job.train_rng, *job.train_set,
                               job.params, job.lr, job.work_fraction);
    if (traced) {
        trc::TraceEvent e;
        e.kind = trc::EventKind::Train;
        e.round = job.round;
        e.dispatch = job.dispatch;
        e.client = job.client->id();
        e.worker = static_cast<std::int32_t>(worker);
        e.value = job.work_fraction;
        e.dur_ns = tracer.hostNowNs() - t0;
        tracer.record(e);
    }
    if (job.codec == nullptr)
        return update;

    std::vector<float> &w = update.weights;
    assert(w.size() == globals.size());
    std::vector<float> delta(w.size());
    for (std::size_t j = 0; j < w.size(); ++j)
        delta[j] = w[j] - globals[j];
    comm::Encoded encoded;
    job.codec->encode(delta, job.client->commResidual(), job.comm_rng,
                      encoded);
    // The cost model charged uploadBytes() before any encode ran.
    assert(encoded.payload_bytes == job.codec->payloadBytes(w.size()));
    job.codec->decode(encoded, delta);
    for (std::size_t j = 0; j < w.size(); ++j)
        w[j] = globals[j] + delta[j];
    return update;
}

ClientRoundReport
costReport(const fleet::Client &c, const PerDeviceParams &params,
           std::uint64_t bytes_up, const device::WorkloadCost &workload,
           std::uint64_t train_flops, std::size_t param_bytes)
{
    device::LocalWorkSpec work;
    work.train_flops_per_sample = train_flops;
    work.samples = c.shardSize();
    work.batch = params.batch;
    work.epochs = params.epochs;
    work.param_bytes = param_bytes;
    work.upload_bytes = bytes_up;

    ClientRoundReport report;
    report.client_id = c.id();
    report.category = c.category();
    report.params = params;
    report.interference = c.interference();
    report.network = c.network();
    report.samples = c.shardSize();
    report.cost = device::clientRoundCost(device::profileFor(c.category()),
                                          workload, work, c.interference(),
                                          c.network());
    report.bytes_up = bytes_up;
    report.bytes_down = static_cast<std::uint64_t>(param_bytes);
    return report;
}

void
prorate(ClientRoundReport &report, double fraction, DropReason reason)
{
    // With an uncompressed upload the download share is exactly 0.5.
    device::RoundCost &cost = report.cost;
    const double f_down =
        cost.t_comm > 0.0 ? cost.t_comm_down / cost.t_comm : 0.0;
    cost.t_comp *= fraction;
    cost.e_comp *= fraction;
    cost.t_comm *= f_down;
    cost.e_comm *= f_down;
    cost.t_comm_up = 0.0;
    cost.t_round = cost.t_comp + cost.t_comm;
    cost.e_total = cost.e_comp + cost.e_comm;
    report.dropped = true;
    report.drop_reason = reason;
    report.update_scale = fraction;
}

bool
isFinite(const std::vector<float> &weights)
{
    for (float v : weights)
        if (!std::isfinite(v))
            return false;
    return true;
}

double
tierIdleEnergy(std::size_t fleet, double round_time,
               std::vector<std::size_t> involved)
{
    double idle_by_tier[device::kNumCategories];
    for (std::size_t c = 0; c < device::kNumCategories; ++c) {
        device::PowerModel power(
            device::profileFor(static_cast<device::Category>(c)));
        idle_by_tier[c] = power.idleEnergy(round_time);
    }
    std::sort(involved.begin(), involved.end());
    involved.erase(std::unique(involved.begin(), involved.end()),
                   involved.end());
    const auto tiers = device::tierBoundaries(fleet);
    double energy = 0.0;
    std::size_t next = 0;
    std::size_t tier = 0;
    for (std::size_t id = 0; id < fleet; ++id) {
        while (tier + 1 < device::kNumCategories && id >= tiers[tier + 1])
            ++tier;
        if (next < involved.size() && involved[next] == id) {
            ++next;
            continue;
        }
        energy += idle_by_tier[tier];
    }
    return energy;
}

} // namespace dispatch
} // namespace fl
} // namespace fedgpo
