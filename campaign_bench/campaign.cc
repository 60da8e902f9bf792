/**
 * @file
 * One whole FedGPO campaign, driven through the public API and reported
 * as one JSON object on stdout.
 *
 *   campaign --workload NAME --seed N --threads T [--rounds R] [--traced]
 *
 * The process builds the workload's simulator and FedGPO policy, runs
 * the workload's fixed number of rounds back to back (closed loop: each
 * round starts when the previous one ends) and prints host timings, the
 * simulated outcome, and a digest of the final global weights. Without
 * --traced it refuses to run with FEDGPO_METRICS or FEDGPO_TRACE on, so
 * its timings are those of an uninstrumented run. With --traced it
 * expects FEDGPO_METRICS=profile and adds the per-layer material: the
 * stage, async and policy spans timed here, the obs registry snapshot,
 * a timed replay of the set-up calls, and the final model's accuracy on
 * held-out samples. run.py turns that material into the benchmark's
 * metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedgpo.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "exp/campaign.h"
#include "fl/simulator.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/tracing/trace.h"
#include "tensor/gemm.h"

#ifndef FEDGPO_BENCH_BUILD_TYPE
#define FEDGPO_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef FEDGPO_BENCH_COMPILER
#define FEDGPO_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace fedgpo;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** A named campaign: configuration, length and accuracy target. */
struct Workload
{
    fl::FlConfig config;
    int rounds = 0;
    /** Fixed target of the sim_*_to_target metrics. */
    double target_accuracy = 0.0;
};

/**
 * The three workloads (see README.md for why each exists). The seed
 * drives every simulator input: data, partition, device processes,
 * selection and faults. FedGPO keeps its default configuration, its
 * exploration seed included. The benchmark workloads run 2 rounds: a
 * seed fixes much of a campaign's work mix (its partition and FedGPO's
 * choices), so its host rates vary about as much at 40 rounds as at 5,
 * and run.py averages many short campaigns instead of a few long ones.
 */
bool
makeWorkload(const std::string &name, std::uint64_t seed,
             std::size_t threads, Workload &w)
{
    fl::FlConfig &c = w.config;
    c.seed = seed;
    c.threads = threads;
    if (name == "sync-mobilenet") {
        c.workload = models::Workload::MobileNetImageNet;
        c.n_devices = 48;
        c.train_samples = 1200;
        c.test_samples = 400;
        c.distribution = data::Distribution::NonIid;
        c.dirichlet_alpha = 0.1;
        c.interference = true;
        c.network_unstable = true;
        w.rounds = 2;
        w.target_accuracy = 0.2;
    } else if (name == "async-lstm") {
        c.workload = models::Workload::LstmShakespeare;
        c.n_devices = 48;
        c.train_samples = 1200;
        c.test_samples = 400;
        c.interference = true;
        c.network_unstable = true;
        c.protocol.mode = fl::ProtocolMode::Async;
        c.faults.churn_rate = 0.1;
        c.faults.duplicate_rate = 0.05;
        c.faults.offline_rate = 0.05;
        c.faults.upload_failure_rate = 0.1;
        c.faults.reconnect_delay_s = 10.0;
        c.comm.codec = comm::Codec::Int8Quant;
        w.rounds = 2;
        w.target_accuracy = 0.5;
    } else if (name == "fleet-noniid") {
        c.workload = models::Workload::CnnMnist;
        c.n_devices = 100000;
        c.train_samples = 512;
        c.test_samples = 8;
        c.distribution = data::Distribution::NonIid;
        c.dirichlet_alpha = 0.1;
        c.interference = true;
        c.network_unstable = true;
        c.fleet.lru_cap = 256;
        w.rounds = 1000;
        w.target_accuracy = 0.5;
    } else {
        return false;
    }
    return true;
}

/** Calls and total host microseconds of one policy entry point. */
struct CallTimer
{
    std::uint64_t calls = 0;
    double us = 0.0;
};

/**
 * ParamOptimizer wrapper that times each call into the wrapped policy
 * (only when `timed`, so untraced runs read no extra clocks).
 */
class TimedPolicy : public optim::ParamOptimizer
{
  public:
    TimedPolicy(optim::ParamOptimizer &inner, bool timed)
        : inner_(inner), timed_(timed)
    {
    }

    std::string name() const override { return inner_.name(); }

    /** Time fn() into t (defined first: callers deduce its type). */
    template <typename Fn>
    auto
    timeCall(CallTimer &t, Fn &&fn)
    {
        if (!timed_)
            return fn();
        const auto t0 = Clock::now();
        auto out = fn();
        t.us += msSince(t0) * 1e3;
        ++t.calls;
        return out;
    }

    int
    chooseClients(int max_k) override
    {
        return timeCall(choose, [&] { return inner_.chooseClients(max_k); });
    }

    std::vector<fl::PerDeviceParams>
    assign(const std::vector<fl::DeviceObservation> &devices,
           const nn::LayerCensus &census) override
    {
        return timeCall(assign_calls,
                    [&] { return inner_.assign(devices, census); });
    }

    comm::Codec
    chooseCodec(comm::Codec configured) override
    {
        return inner_.chooseCodec(configured);
    }

    void
    feedback(const fl::RoundResult &result) override
    {
        timeCall(feedback_calls, [&] {
            inner_.feedback(result);
            return 0;
        });
    }

    const obs::DecisionRecord *
    lastDecision() const override
    {
        return inner_.lastDecision();
    }

    CallTimer choose, assign_calls, feedback_calls;

  private:
    optim::ParamOptimizer &inner_;
    bool timed_;
};

/**
 * The benchmark's own view of the round event stream, next to
 * exp::CampaignTraceObserver (which keeps the simulated outcome): it
 * counts trained reports and their samples, checks that every round's
 * accuracy, loss, time and energy are finite, counts the drop reasons
 * CampaignResult does not keep, and with `timed` takes the stage spans
 * and the async spans: runRound -> onRoundStart (fill), onRoundStart ->
 * first report (pump), first report -> onRoundEnd (tail).
 */
class BenchObserver : public fl::round::RoundObserver
{
  public:
    explicit BenchObserver(bool timed) : timed_(timed) {}

    /** Call right before each runRound. */
    void
    beginCall()
    {
        if (timed_)
            t_call_ = Clock::now();
        first_report_ = false;
    }

    void
    onRoundStart(const fl::round::RoundContext &ctx) override
    {
        (void)ctx;
        if (!timed_)
            return;
        t_start_ = Clock::now();
        fill_ms += std::chrono::duration<double, std::milli>(t_start_ -
                                                             t_call_)
                       .count();
    }

    void
    onStage(const fl::round::RoundContext &ctx, fl::round::Stage stage,
            double wall_ms) override
    {
        (void)ctx;
        stage_ms[static_cast<std::size_t>(stage)] += wall_ms;
        if (stage == fl::round::Stage::Select)
            select_ms.push_back(wall_ms);
    }

    void
    onClientReport(const fl::round::RoundContext &ctx,
                   const fl::ClientRoundReport &report) override
    {
        (void)ctx;
        if (timed_ && !first_report_) {
            t_first_ = Clock::now();
            pump_ms += std::chrono::duration<double, std::milli>(t_first_ -
                                                                 t_start_)
                           .count();
        }
        first_report_ = true;
        ++reports;
        const fl::DropReason why = report.drop_reason;
        if (why != fl::DropReason::Offline &&
            why != fl::DropReason::Duplicate) {
            ++trained_reports;
            sample_epochs += static_cast<double>(report.samples) *
                             static_cast<double>(report.params.epochs);
        }
    }

    void
    onRoundEnd(const fl::RoundResult &r) override
    {
        if (timed_)
            tail_ms += msSince(first_report_ ? t_first_ : t_start_);
        finite = finite && std::isfinite(r.test_accuracy) &&
                 std::isfinite(r.test_loss) &&
                 std::isfinite(r.round_time) &&
                 std::isfinite(r.energy_total);
        dropped_churn += r.dropped_churn;
        dropped_stale += r.dropped_stale;
        dropped_duplicate += r.dropped_duplicate;
        if (r.protocol != fl::ProtocolMode::Sync) {
            staleness_sum += r.staleness_mean;
            ++staleness_rounds;
        }
    }

    std::array<double, fl::round::kStageCount> stage_ms{};
    std::vector<double> select_ms;
    double fill_ms = 0.0, pump_ms = 0.0, tail_ms = 0.0;
    std::uint64_t reports = 0, trained_reports = 0;
    std::uint64_t dropped_churn = 0, dropped_stale = 0,
                  dropped_duplicate = 0;
    double sample_epochs = 0.0;
    double staleness_sum = 0.0;
    std::uint64_t staleness_rounds = 0;
    bool finite = true;

  private:
    bool timed_;
    bool first_report_ = false;
    Clock::time_point t_call_, t_start_, t_first_;
};

template <typename T>
std::uint64_t
total(const std::vector<T> &v)
{
    std::uint64_t sum = 0;
    for (const T x : v)
        sum += x;
    return sum;
}

/** FNV-1a over the bytes of the final global weights. */
std::string
weightsDigest(nn::Model &model)
{
    const std::vector<float> w = model.saveParams();
    std::uint64_t h = 1469598103934665603ULL;
    const auto *bytes = reinterpret_cast<const unsigned char *>(w.data());
    for (std::size_t i = 0; i < w.size() * sizeof(float); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * The simulator's synthetic data stream for this config, extended to
 * `n` samples: the same generator, seeded from the same split of the
 * root seed as in the FlSimulator constructor.
 */
data::Dataset
syntheticData(const fl::FlConfig &c, std::size_t n)
{
    util::Rng data_rng = util::Rng(c.seed).split(1);
    switch (c.workload) {
      case models::Workload::CnnMnist:
        return data::makeSyntheticMnist(n, data_rng);
      case models::Workload::LstmShakespeare:
        return data::makeSyntheticShakespeare(n, data_rng);
      case models::Workload::MobileNetImageNet:
        return data::makeSyntheticImageNet(n, data_rng);
    }
    return {};
}

/**
 * Time the public set-up calls the simulator makes for this config:
 * data generation, the shard partition and one model build.
 */
struct SetupBreakdown
{
    double dataset_s = 0.0, partition_s = 0.0, model_s = 0.0;
};

SetupBreakdown
timeSetupCalls(const fl::FlConfig &c)
{
    SetupBreakdown out;
    util::Rng root(c.seed);
    root.split(1); // the data stream, drawn inside syntheticData
    auto t0 = Clock::now();
    const std::size_t total = c.train_samples + c.test_samples;
    const data::Dataset all = syntheticData(c, total);
    std::vector<std::size_t> train_idx(c.train_samples);
    for (std::size_t i = 0; i < c.train_samples; ++i)
        train_idx[i] = i;
    tensor::Tensor feat;
    std::vector<int> labels;
    all.gather(train_idx, feat, labels);
    const data::Dataset train(std::move(feat), std::move(labels),
                              all.numClasses());
    out.dataset_s = msSince(t0) / 1e3;

    util::Rng part_rng = root.split(2);
    t0 = Clock::now();
    if (c.distribution == data::Distribution::IidIdeal) {
        const auto order = data::iidAssignmentOrder(train.size(), part_rng);
        (void)order;
    } else {
        const auto part = data::makePartition(train, c.n_devices,
                                              c.distribution, part_rng,
                                              c.dirichlet_alpha);
        (void)part;
    }
    out.partition_s = msSince(t0) / 1e3;

    t0 = Clock::now();
    const auto model = models::buildModel(c.workload, c.seed ^ 7);
    (void)model;
    out.model_s = msSince(t0) / 1e3;
    return out;
}

/** Samples in the benchmark's own held-out evaluation set. */
constexpr std::size_t kHeldOut = 1000;

/**
 * Accuracy of the final global model on kHeldOut samples the simulator
 * never saw. The synthetic generators draw class prototypes first and
 * then samples in order, so extending the simulator's own data stream
 * past train + test samples yields fresh samples of the same concept.
 */
double
heldOutAccuracy(const fl::FlConfig &c, nn::Model &model)
{
    const std::size_t first = c.train_samples + c.test_samples;
    const std::size_t total = first + kHeldOut;
    const data::Dataset all = syntheticData(c, total);
    std::size_t correct = 0;
    for (std::size_t start = first; start < total; start += c.eval_batch) {
        const std::size_t end = std::min(start + c.eval_batch, total);
        std::vector<std::size_t> idx(end - start);
        for (std::size_t i = start; i < end; ++i)
            idx[i - start] = i;
        tensor::Tensor feat;
        std::vector<int> labels;
        all.gather(idx, feat, labels);
        correct += model.evaluate(feat, labels).correct;
    }
    return static_cast<double>(correct) / static_cast<double>(kHeldOut);
}

/** JSON number; non-finite values become null. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

/** Label of a layer in the attribution ("dwconv" split from "conv"). */
const char *
layerKindLabel(const nn::Layer &layer)
{
    switch (layer.kind()) {
      case nn::LayerKind::Conv:
        return layer.name().rfind("dwconv", 0) == 0 ? "dwconv" : "conv";
      case nn::LayerKind::Dense:
        return "dense";
      case nn::LayerKind::Recurrent:
        return "recurrent";
      case nn::LayerKind::Activation:
        return "act";
      case nn::LayerKind::Pool:
        return "pool";
      case nn::LayerKind::Reshape:
        return "reshape";
    }
    return "layer";
}

/** The obs registry snapshot as JSON (spans, histograms, counters). */
void
writeObsSnapshot(std::ostream &os)
{
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    os << ",\"spans\":{";
    for (std::size_t i = 0; i < snap.spans.size(); ++i) {
        const auto &s = snap.spans[i];
        os << (i ? "," : "") << str(s.name) << ":{\"count\":" << s.count
           << ",\"ms\":" << num(s.total_ms) << "}";
    }
    os << "},\"histograms\":{";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto &[name, h] = snap.histograms[i];
        os << (i ? "," : "") << str(name) << ":{\"count\":"
           << h.stat.count() << ",\"sum\":" << num(h.stat.sum())
           << ",\"mean\":" << num(h.stat.mean()) << ",\"bounds\":[";
        for (std::size_t b = 0; b < h.bounds.size(); ++b)
            os << (b ? "," : "") << num(h.bounds[b]);
        os << "],\"cumulative\":[";
        for (std::size_t b = 0; b < h.bucket_counts.size(); ++b)
            os << (b ? "," : "") << h.bucket_counts[b];
        os << "]}";
    }
    os << "},\"counters\":{";
    for (std::size_t i = 0; i < snap.counters.size(); ++i)
        os << (i ? "," : "") << str(snap.counters[i].first) << ":"
           << snap.counters[i].second;
    os << "}";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "campaign: %s\nusage: campaign --workload "
                 "sync-mobilenet|async-lstm|fleet-noniid --seed N "
                 "--threads T [--rounds R] [--traced]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 0;
    std::size_t threads = 0;
    int rounds_override = 0;
    bool traced = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload_name = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--threads" && has_value) {
            threads = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--rounds" && has_value) {
            rounds_override = std::atoi(argv[++i]);
        } else if (arg == "--traced") {
            traced = true;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_seed || threads == 0)
        return usage("--seed and a positive --threads are required");
    Workload w;
    if (!makeWorkload(workload_name, seed, threads, w))
        return usage(("unknown workload '" + workload_name + "'").c_str());
    if (rounds_override > 0)
        w.rounds = rounds_override;

    if (std::strcmp(FEDGPO_BENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "campaign: refusing to measure a %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     FEDGPO_BENCH_BUILD_TYPE);
        return 3;
    }
    const bool metrics_on = obs::level() != obs::Level::Off;
    const bool tracing_on = obs::tracing::mode() != obs::tracing::Mode::Off;
    if (!traced && (metrics_on || tracing_on)) {
        std::fprintf(stderr,
                     "campaign: refusing an untraced run with "
                     "FEDGPO_METRICS or FEDGPO_TRACE on\n");
        return 3;
    }
    if (traced && obs::level() != obs::Level::Profile) {
        std::fprintf(stderr,
                     "campaign: a traced run needs FEDGPO_METRICS=profile\n");
        return 3;
    }

    SetupBreakdown breakdown;
    if (traced)
        breakdown = timeSetupCalls(w.config);

    const auto t_setup = Clock::now();
    fl::FlSimulator sim(w.config);
    core::FedGpo fedgpo;
    const double setup_s = msSince(t_setup) / 1e3;

    TimedPolicy policy(fedgpo, traced);
    exp::CampaignResult result;
    fl::ConvergenceTracker tracker;
    exp::CampaignTraceObserver outcome(result, tracker);
    BenchObserver observer(traced);
    sim.addRoundObserver(&outcome);
    sim.addRoundObserver(&observer);
    const auto t_run = Clock::now();
    for (int r = 0; r < w.rounds; ++r) {
        observer.beginCall();
        sim.runRound(policy);
    }
    const double campaign_s = msSince(t_run) / 1e3;
    sim.removeRoundObserver(&observer);
    sim.removeRoundObserver(&outcome);
    // Snapshot before the held-out evaluation below adds forward spans.
    std::ostringstream obs_json;
    if (traced)
        writeObsSnapshot(obs_json);

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) /
                               1024.0; // ru_maxrss is KiB on Linux

    const double heldout_accuracy =
        traced ? heldOutAccuracy(w.config, sim.globalModel()) : 0.0;

    const fl::async::EventPump *pump = sim.eventPump();
    // A training starts for every dispatch not rejected as offline at
    // selection; the async pump also counts dispatches still in flight.
    const std::uint64_t dispatches =
        pump != nullptr ? pump->dispatchCount() - result.dropped_offline
                        : observer.trained_reports;

    std::ostringstream os;
    os << "{\"workload\":" << str(workload_name) << ",\"seed\":" << seed
       << ",\"threads\":" << sim.threads()
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"build_type\":" << str(FEDGPO_BENCH_BUILD_TYPE)
       << ",\"compiler\":" << str(FEDGPO_BENCH_COMPILER)
       << ",\"kernel_mode\":"
       << str(tensor::fast::enabled() ? "fast" : "default")
       << ",\"rounds\":" << w.rounds << ",\"setup_s\":" << num(setup_s)
       << ",\"campaign_s\":" << num(campaign_s)
       << ",\"peak_rss_mb\":" << num(peak_rss_mb)
       << ",\"digest\":" << str(weightsDigest(sim.globalModel()))
       << ",\"finite\":" << (observer.finite ? "true" : "false")
       << ",\"final_accuracy\":" << num(result.accuracy.back())
       << ",\"target_accuracy\":" << num(w.target_accuracy)
       << ",\"sim_time_to_target_s\":"
       << num(result.timeToAccuracy(w.target_accuracy))
       << ",\"sim_energy_to_target_kj\":"
       << num(result.energyToAccuracy(w.target_accuracy) / 1e3)
       << ",\"dispatches\":" << dispatches
       << ",\"reports\":" << observer.reports
       << ",\"dropped\":" << total(result.dropped)
       << ",\"train_sample_epochs\":" << num(observer.sample_epochs)
       << ",\"upload_retries\":" << result.upload_retries
       << ",\"bytes_up\":" << result.bytes_up_total
       << ",\"dropped_by\":{\"straggler\":"
       << total(result.dropped_straggler)
       << ",\"diverged\":" << total(result.dropped_diverged)
       << ",\"offline\":" << result.dropped_offline
       << ",\"crashed\":" << result.dropped_crashed
       << ",\"upload_failed\":" << result.dropped_upload
       << ",\"churned\":" << observer.dropped_churn
       << ",\"stale\":" << observer.dropped_stale
       << ",\"duplicate\":" << observer.dropped_duplicate << "}";

    if (traced) {
        const std::size_t n = observer.select_ms.size();
        const std::size_t tenth = std::max<std::size_t>(n / 10, 1);
        double early = 0.0, late = 0.0;
        for (std::size_t i = 0; i < tenth && i < n; ++i) {
            early += observer.select_ms[i];
            late += observer.select_ms[n - 1 - i];
        }
        os << ",\"stage_ms\":{";
        for (std::size_t s = 0; s < fl::round::kStageCount; ++s)
            os << (s ? "," : "")
               << str(fl::round::stageName(
                      static_cast<fl::round::Stage>(s)))
               << ":" << num(observer.stage_ms[s]);
        os << "},\"select_late_over_early\":"
           << num(early > 0.0 ? late / early : 0.0)
           << ",\"async\":{\"fill_ms\":" << num(observer.fill_ms)
           << ",\"pump_ms\":" << num(observer.pump_ms)
           << ",\"tail_ms\":" << num(observer.tail_ms)
           << ",\"dispatches\":"
           << (pump != nullptr ? pump->dispatchCount() : 0)
           << ",\"staleness_mean\":"
           << num(observer.staleness_rounds > 0
                      ? observer.staleness_sum /
                            static_cast<double>(observer.staleness_rounds)
                      : 0.0)
           << "},\"policy\":{";
        const std::pair<const char *, const CallTimer *> calls[] = {
            {"choose", &policy.choose},
            {"assign", &policy.assign_calls},
            {"feedback", &policy.feedback_calls}};
        for (std::size_t i = 0; i < 3; ++i)
            os << (i ? "," : "") << str(calls[i].first) << ":{\"calls\":"
               << calls[i].second->calls
               << ",\"us\":" << num(calls[i].second->us) << "}";
        os << "},\"setup_breakdown\":{\"dataset_s\":"
           << num(breakdown.dataset_s)
           << ",\"partition_s\":" << num(breakdown.partition_s)
           << ",\"model_s\":" << num(breakdown.model_s) << "}"
           << ",\"fleet\":{\"peak_resident\":"
           << sim.clientStore().peakResident()
           << ",\"resident_bytes\":" << sim.clientStore().residentBytes()
           << "},\"layers\":[";
        nn::Model &model = sim.globalModel();
        for (std::size_t i = 0; i < model.size(); ++i) {
            const nn::Layer &layer = model.layer(i);
            os << (i ? "," : "") << "{\"index\":" << i
               << ",\"name\":" << str(layer.name())
               << ",\"kind\":" << str(layerKindLabel(layer))
               << ",\"flops_per_sample\":" << layer.flopsPerSample() << "}";
        }
        os << "],\"test_samples\":" << w.config.test_samples
           << ",\"heldout_accuracy\":" << num(heldout_accuracy)
           << obs_json.str();
    }
    os << "}";
    std::cout << os.str() << std::endl;
    return 0;
}
