/**
 * @file
 * The staged round engine: Algorithm 1's server loop decomposed into an
 * explicit stage sequence over a RoundContext —
 *
 *   Select -> Train -> Encode -> Cost -> Recover -> Straggler
 *          -> Aggregate -> Energy -> Evaluate
 *
 * with the three policy-bearing stages (upload recovery, straggler
 * handling, aggregation) pluggable and every stage reported to
 * registered RoundObservers. When the context carries a FaultModel the
 * engine additionally injects and handles per-(round, client) faults:
 * offline devices are replaced at selection, crashed clients surface as
 * partial (dropped) reports, failed uploads are retried by the
 * RecoveryPolicy, and a quorum gate aborts the round before aggregation
 * when too few updates survive. With the default strategies
 * (FedAvgAggregator + DeadlineDropPolicy) and no fault model the engine
 * is bit-identical to the monolithic round loop it replaced, asserted
 * by tests/round_golden_test.cc.
 */

#ifndef FEDGPO_FL_ROUND_ROUND_ENGINE_H_
#define FEDGPO_FL_ROUND_ROUND_ENGINE_H_

#include <array>
#include <memory>
#include <vector>

#include "comm/codec.h"
#include "fl/round/aggregator.h"
#include "fl/round/observer.h"
#include "fl/round/recovery_policy.h"
#include "fl/round/round_context.h"
#include "fl/round/straggler_policy.h"
#include "obs/metrics.h"

namespace fedgpo {
namespace fl {

namespace async {
class EventPump;
} // namespace async

namespace round {

/**
 * Server-side validation run before any aggregation: updates containing
 * non-finite values (a client diverged under an aggressive configuration)
 * are rejected — marked dropped with DropReason::Diverged and counted in
 * dropped_diverged — so one bad client cannot poison the global model.
 *
 * @return Number of updates rejected this call.
 */
std::size_t rejectDivergedUpdates(RoundContext &ctx);

/**
 * Runs rounds as a fixed stage pipeline with pluggable strategies.
 */
class RoundEngine
{
  public:
    /**
     * Both strategies are required (non-null). The recovery policy
     * defaults to RetryBackoffPolicy with the default FaultConfig; it
     * only acts when the context carries fault draws.
     */
    RoundEngine(std::unique_ptr<Aggregator> aggregator,
                std::unique_ptr<StragglerPolicy> straggler,
                std::unique_ptr<RecoveryPolicy> recovery = nullptr);

    Aggregator &aggregator() { return *aggregator_; }
    StragglerPolicy &stragglerPolicy() { return *straggler_; }
    RecoveryPolicy &recoveryPolicy() { return *recovery_; }

    /** Swap the aggregation strategy (takes effect next round). */
    void setAggregator(std::unique_ptr<Aggregator> aggregator);

    /** Swap the straggler strategy (takes effect next round). */
    void setStragglerPolicy(std::unique_ptr<StragglerPolicy> straggler);

    /** Swap the upload-recovery strategy (takes effect next round). */
    void setRecoveryPolicy(std::unique_ptr<RecoveryPolicy> recovery);

    /** Register an observer (non-owning; must outlive the engine use). */
    void addObserver(RoundObserver *observer);

    /** Unregister an observer; unknown pointers are ignored. */
    void removeObserver(RoundObserver *observer);

    /**
     * Run one full round over the context. The context must carry all
     * simulator state pointers plus the select and evaluate hooks; the
     * result is both returned and left in ctx.result.
     */
    RoundResult run(RoundContext &ctx);

    /**
     * Run one event-driven epoch (the Async/Buffered analog of run()):
     * the pump replaces the Select..Energy stage sequence, while
     * evaluation, policy feedback, and the observer protocol
     * (onRoundStart after selection, onAggregate when anything folded,
     * onClientReport per report, onDecision, onRoundEnd) stay
     * identical — so traces, metrics, and FedGPO feedback work
     * unchanged across protocols.
     */
    RoundResult runEvents(RoundContext &ctx, async::EventPump &pump);

  private:
    void stageSelect(RoundContext &ctx);
    void stageTrain(RoundContext &ctx);
    void stageEncode(RoundContext &ctx);
    void stageCost(RoundContext &ctx);
    void stageRecover(RoundContext &ctx);
    void stageStraggler(RoundContext &ctx);
    void stageAggregate(RoundContext &ctx);
    void stageEnergy(RoundContext &ctx);
    void stageEvaluate(RoundContext &ctx);

    /**
     * The epilogue run() and runEvents() share: traffic totals and
     * counters, policy feedback, onDecision, the round counters,
     * onRoundEnd, the RoundEnd trace event and the trace drain.
     */
    RoundResult endRound(RoundContext &ctx);

    /** Forward one fault event to every observer. */
    void fireFault(const RoundContext &ctx, const FaultEvent &event);

    std::unique_ptr<Aggregator> aggregator_;
    std::unique_ptr<StragglerPolicy> straggler_;
    std::unique_ptr<RecoveryPolicy> recovery_;
    std::vector<RoundObserver *> observers_;
    // Host-profile probes ("round.<stage>" spans, round counters),
    // resolved once at construction; all null when metrics are off.
    std::array<obs::SpanNode *, kStageCount> stage_spans_{};
    obs::Counter *rounds_counter_ = nullptr;
    obs::Counter *aborts_counter_ = nullptr;
    // comm.* probes: fleet traffic counters plus the per-client
    // compression-ratio distribution. Null when metrics are off.
    obs::Counter *bytes_up_counter_ = nullptr;
    obs::Counter *bytes_down_counter_ = nullptr;
    obs::Counter *encoded_counter_ = nullptr;
    obs::Histogram *ratio_hist_ = nullptr;
    // Per-codec upload traffic ("comm.bytes_up.<codec>"), indexed by
    // comm::Codec, for the Prometheus exposition.
    std::array<obs::Counter *, comm::kNumCodecs> codec_up_counters_{};
};

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_ROUND_ENGINE_H_
