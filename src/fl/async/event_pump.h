/**
 * @file
 * The event-driven server loop behind the Async and Buffered protocol
 * modes: dispatches are individual server->client->server exchanges
 * pumped through fleet::VirtualClock completion events instead of a
 * round barrier.
 *
 * One pump "epoch" is the event-mode analog of a synchronous round —
 * the unit RoundResult, evaluation, and policy feedback are cut at. An
 * Async epoch folds `folds_per_epoch` arriving updates (default: the
 * cohort size K, so one epoch does one round's worth of update work);
 * a Buffered epoch ends at one buffer flush (M arrivals, or the
 * wall-clock timeout that generalizes the synchronous quorum gate).
 * In-flight dispatches, scheduled events, the global model version, and
 * client unavailability windows all persist across epochs.
 *
 * The fault model is load-bearing here: per-dispatch draws
 * (FaultModel::drawDispatch) can take a client offline at dispatch,
 * churn it mid-flight (partial work, lost update, reconnect after a
 * delay), exhaust its upload retries (charged into the modeled arrival
 * time via RetryBackoffPolicy::chargeReport), or deliver its update
 * twice — the second copy rejected by the per-client dispatch epoch
 * carried in the event tag. A staleness bound drops updates older than
 * `max_staleness` with per-event accounting.
 *
 * Every dispatch runs in three steps over the shared lifecycle of
 * fl/dispatch.h. Dispatch (pump thread) selects the client, draws its
 * faults, prices it and schedules the Completion/Churn event; none of
 * this reads the trained weights. The training job (a ThreadPool::submit
 * task) starts from a shared snapshot of the dispatch-time globals.
 * Join (pump thread) waits for the job when its event resolves, or at
 * finishEpoch for dispatches still in flight, so no job outlives the
 * epoch that issued it.
 *
 * Determinism: events pop and resolve one at a time on the pump thread,
 * and every random draw — selection from a persistent pump-owned
 * stream, the fault draws, and the per-dispatch train/comm streams
 * (pure functions of (seed, dispatch, client) under their own root
 * constants) — is made or split there. A job reads only its snapshot
 * and its own client and writes only its own result, so results are
 * bit-identical across thread counts and ClientStore LRU caps.
 */

#ifndef FEDGPO_FL_ASYNC_EVENT_PUMP_H_
#define FEDGPO_FL_ASYNC_EVENT_PUMP_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/fault_model.h"
#include "fl/async/protocol.h"
#include "fl/async/staleness.h"
#include "fl/round/aggregator.h"
#include "fl/round/observer.h"
#include "fl/round/round_context.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace fedgpo {
namespace fl {
namespace async {

/** Receiver of fault events (the engine forwards them to observers). */
using FaultSink = std::function<void(const round::FaultEvent &)>;

/**
 * Event-driven dispatch/fold loop over a RoundContext. Owned by the
 * simulator alongside the clock and store it drives; one instance
 * serves the whole campaign so in-flight state carries across epochs.
 */
class EventPump
{
  public:
    /**
     * @param config Validated protocol knobs (mode must not be Sync).
     * @param faults The simulator's fault model (dispatch-keyed draws;
     *               inert when no async rate is set). Must outlive the
     *               pump.
     * @param seed   Root simulator seed; the pump derives its selection
     *               and per-dispatch streams from it.
     */
    EventPump(const AsyncConfig &config, const fault::FaultModel &faults,
              std::uint64_t seed);

    /** Waits for training jobs still running (e.g. after an exception). */
    ~EventPump();

    EventPump(const EventPump &) = delete;
    EventPump &operator=(const EventPump &) = delete;

    /**
     * Start an epoch: stamp protocol metadata on the result, then fill
     * the in-flight set up to ctx.requested_k (at most the fleet). New
     * dispatches are assigned via ctx.assign (one call over all newly
     * chosen clients); their training jobs run on ctx.pool.
     */
    void beginEpoch(round::RoundContext &ctx, const FaultSink &faults);

    /**
     * Pump events until the epoch's fold/flush target is met (or the
     * queue runs dry / the safety cap trips, which aborts the epoch).
     * Every completed or churned dispatch is replaced by a fresh one
     * inheriting its per-device parameters, so the server keeps
     * ctx.requested_k exchanges in flight.
     */
    void pumpEpoch(round::RoundContext &ctx, const FaultSink &faults);

    /**
     * Close the epoch: timestamps, energy bookkeeping (participant
     * energy at arrival, tier-idle energy over uninvolved devices, no
     * barrier-wait energy — the async win), traffic totals, and the
     * staleness summary. Joins every job still in flight first, so the
     * store may evict clients once this returns. Returns the epoch's
     * aggregation stats.
     */
    round::AggregationStats finishEpoch(round::RoundContext &ctx);

    const AsyncConfig &config() const { return config_; }

    /** Global model version: folds applied since campaign start. */
    std::uint64_t modelVersion() const { return model_version_; }

    /** Dispatches issued since campaign start. */
    std::uint64_t dispatchCount() const { return dispatch_seq_; }

    /** Currently in-flight dispatches. */
    std::size_t inFlight() const { return in_flight_.size(); }

  private:
    /** One outstanding server->client->server exchange. */
    struct InFlight
    {
        std::uint64_t epoch = 0; //!< dispatch seq, stamped in event tags
        std::uint64_t dispatch_version = 0; //!< model version at dispatch
        std::int32_t created_round = -1; //!< epoch of creation (trace id)
        fault::AsyncFaultDraw draw;
        ClientRoundReport report; //!< cost/traffic filled at dispatch
        /** The training job; valid until joined. */
        std::future<fleet::Client::UpdateResult> job;
        /** Trained (decoded) update, moved out of the job at join. */
        fleet::Client::UpdateResult update;
        bool upload_exhausted = false;
    };

    /** A folded-but-unflushed update (Buffered mode). */
    struct BufferedUpdate
    {
        ClientRoundReport report;
        std::vector<float> weights;
        std::size_t samples = 0;
        double scale = 1.0; //!< clip(weight(τ), 0, 1)
        std::uint64_t dispatch = 0;      //!< trace id through the flush
        std::int32_t created_round = -1; //!< trace id through the flush
    };

    /** What a duplicate rejection needs to report about dispatch one. */
    struct DuplicateInfo
    {
        device::Category category = device::Category::High;
        double dispatch_ts = -1.0;
        std::int32_t created_round = -1; //!< trace id of dispatch one
    };

    /** A freshly selected dispatch awaiting dispatch(). */
    struct PendingDispatch
    {
        std::size_t client_id = 0;
        std::uint64_t seq = 0;
        std::int32_t created_round = -1; //!< epoch at selection (trace id)
        fault::AsyncFaultDraw draw;
        PerDeviceParams params;
    };

    /**
     * Pick an available client (not in flight, not offline) from the
     * pump's persistent selection stream; false when none remains.
     */
    bool pickClient(const round::RoundContext &ctx, std::size_t &out);

    /**
     * Select + fault-draw dispatches until `fill` plus the in-flight
     * set reaches the concurrency target. Offline draws produce their
     * zero-cost rejected report and unavailability window inline.
     */
    void selectDispatches(round::RoundContext &ctx, const FaultSink &faults,
                          const std::vector<PerDeviceParams> *inherit,
                          std::vector<PendingDispatch> &fill);

    /**
     * Cost-model, retry-charge and schedule one selected dispatch,
     * submit its training job, and insert its InFlight record.
     */
    void dispatch(round::RoundContext &ctx, const FaultSink &faults,
                  const PendingDispatch &pending);

    /** Wait for the record's job (if not yet joined) and take its update. */
    static void join(InFlight &record);

    /** Dispatch replacements until the concurrency target is met. */
    void topUp(round::RoundContext &ctx, const FaultSink &faults,
               const PerDeviceParams &inherit);

    /** Take a client offline until `until_ts` (Reconnect scheduled). */
    void goOffline(round::RoundContext &ctx, std::size_t client_id,
                   double until_ts);

    void onCompletion(round::RoundContext &ctx, const FaultSink &faults,
                      const fleet::FleetEvent &event);
    void onChurn(round::RoundContext &ctx, const FaultSink &faults,
                 const fleet::FleetEvent &event);

    /** Fold one arrived update immediately (Async mode). */
    void foldAsync(round::RoundContext &ctx, InFlight &record,
                   double arrival_ts, int staleness);

    /** Flush the buffer as one sample-weighted FedAvg fold (Buffered). */
    void flushBuffer(round::RoundContext &ctx, double flush_ts);

    /** Record a fold into the epoch staleness/aggregation summary. */
    void accountFold(std::size_t samples, int staleness);

    bool epochDone() const;

    AsyncConfig config_;
    const fault::FaultModel *fault_model_;
    std::uint64_t seed_;
    util::Rng select_rng_;
    std::unique_ptr<StalenessPolicy> staleness_;

    // ---- Campaign-persistent state. ------------------------------------
    std::uint64_t dispatch_seq_ = 0;
    std::uint64_t model_version_ = 0;
    std::unordered_map<std::size_t, InFlight> in_flight_;
    std::unordered_map<std::size_t, double> offline_until_;
    std::unordered_map<std::uint64_t, DuplicateInfo> dup_info_;
    std::vector<BufferedUpdate> buffer_;
    bool timeout_pending_ = false;
    std::uint64_t timeout_handle_ = 0;
    PerDeviceParams default_params_;
    bool warned_buffer_clamp_ = false;
    /**
     * Globals at the current model version, shared by the jobs
     * dispatched at it; dropped when the globals change and at epoch
     * end.
     */
    std::shared_ptr<const std::vector<float>> snapshot_;
    /** Fold-staleness distribution ("async.staleness"); null when off. */
    obs::Histogram *staleness_hist_ = nullptr;

    // ---- Per-epoch state. ----------------------------------------------
    std::size_t concurrency_ = 0;
    int effective_buffer_ = 1;
    int target_folds_ = 0;
    int epoch_folds_ = 0;
    int epoch_flushes_ = 0;
    int epoch_arrivals_ = 0; //!< deliveries seen, for arrival_rank
    std::uint64_t epoch_events_ = 0;
    round::AggregationStats epoch_stats_;
    double staleness_sum_ = 0.0;
    std::size_t staleness_count_ = 0;
    int staleness_max_ = 0;
};

} // namespace async
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ASYNC_EVENT_PUMP_H_
