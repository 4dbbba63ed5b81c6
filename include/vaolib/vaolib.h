// Copyright 2026 The vaolib Authors.
//
// Single-include public facade for vaolib. Applications include this one
// header and link the vaolib_engine target:
//
//   #include <vaolib/vaolib.h>
//
//   vaolib::engine::Query q = vaolib::engine::Query::Builder(&model)
//                                 .Args({...})
//                                 .Max()
//                                 .Epsilon(0.01)
//                                 .Build();
//
// The facade must compile standalone under -Wall -Wextra -Werror; CI
// builds the `vaolib_facade_check` target to enforce that every public
// header stays self-contained (see cmake/facade_check.cc).

#ifndef VAOLIB_VAOLIB_H_
#define VAOLIB_VAOLIB_H_

/// \defgroup vaolib_common Common infrastructure
/// Status/Result error handling, sound interval \ref vaolib::Bounds,
/// deterministic \ref vaolib::Rng, the \ref vaolib::WorkMeter work-unit
/// clock every budget in the library is denominated in, and the shared
/// \ref vaolib::ThreadPool.

#include "common/bounds.h"       // IWYU pragma: export
#include "common/result.h"       // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export
#include "common/work_meter.h"   // IWYU pragma: export

/// \defgroup vaolib_vao Variable-accuracy functions
/// The paper's core abstraction: \ref vaolib::vao::VariableAccuracyFunction
/// produces a \ref vaolib::vao::ResultObject whose bounds tighten with each
/// Iterate() call. Includes the black-box adapter, the sharded
/// \ref vaolib::vao::BoundsCache / CachingFunction memoization layer, the
/// parallel StepAll batch driver, and the unified probabilistic
/// \ref vaolib::vao::Answer every executor seam returns: a Bounds plus
/// answer mode (exact / approximate), confidence, sample accounting, and
/// the deterministic-vs-sampling width decomposition. Answer lifts
/// implicitly from Bounds, so pre-existing exact-mode code compiles
/// unchanged.

#include "vao/answer.h"             // IWYU pragma: export
#include "vao/black_box.h"          // IWYU pragma: export
#include "vao/function_cache.h"     // IWYU pragma: export
#include "vao/parallel.h"           // IWYU pragma: export
#include "vao/pde_profile_cache.h"  // IWYU pragma: export
#include "vao/result_object.h"      // IWYU pragma: export

/// \defgroup vaolib_operators Adaptive operators and iteration strategies
/// The four VAO operator families (selection, MIN/MAX, SUM/AVE, TOP-K)
/// configured through \ref vaolib::operators::OperatorOptions, the
/// pluggable \ref vaolib::operators::IterationStrategy, and the resumable
/// \ref vaolib::operators::IterationTask unit the cross-query scheduler
/// interleaves.

#include "operators/iteration_strategy.h"  // IWYU pragma: export
#include "operators/iteration_task.h"      // IWYU pragma: export
#include "operators/min_max.h"             // IWYU pragma: export
#include "operators/operator_base.h"       // IWYU pragma: export
#include "operators/selection.h"           // IWYU pragma: export
#include "operators/sum_ave.h"             // IWYU pragma: export
#include "operators/top_k.h"               // IWYU pragma: export
#include "operators/traditional.h"         // IWYU pragma: export

/// \defgroup vaolib_engine Continuous-query engine
/// Declarative \ref vaolib::engine::Query (with the fluent
/// \ref vaolib::engine::Query::Builder), relations/schemas, the
/// \ref vaolib::engine::QueryPlan compiler both executors share, the
/// single-query \ref vaolib::engine::CqExecutor, the shared-result
/// \ref vaolib::engine::MultiQueryExecutor, and the budget-aware
/// \ref vaolib::engine::WorkScheduler with its fair-share / EDF / greedy
/// global policies. The approximate tier (engine/sampling) serves sampled
/// SUM/AVE/TOP-K behind the same seams: seeded row samplers and the
/// resumable \ref vaolib::engine::sampling::SampledSumTask, enabled per
/// query via \ref vaolib::engine::ApproxSpec (`APPROX WITH CONFIDENCE ...`
/// in SQL).

#include "engine/executor.h"             // IWYU pragma: export
#include "engine/multi_query.h"          // IWYU pragma: export
#include "engine/query.h"                // IWYU pragma: export
#include "engine/query_plan.h"           // IWYU pragma: export
#include "engine/relation.h"             // IWYU pragma: export
#include "engine/sampling/sampled_sum.h" // IWYU pragma: export
#include "engine/sampling/sampler.h"     // IWYU pragma: export
#include "engine/scheduler.h"            // IWYU pragma: export
#include "engine/schema.h"               // IWYU pragma: export
#include "engine/sql_parser.h"           // IWYU pragma: export
#include "engine/value.h"                // IWYU pragma: export

/// \defgroup vaolib_obs Observability
/// Process-wide \ref vaolib::obs::MetricsRegistry (Prometheus-style
/// counters/gauges), the per-query \ref vaolib::obs::ExecutionReport
/// with JSON / Prometheus renderers (scheduler section and
/// estimator-calibration audit included), and the execution tracer:
/// span timelines, per-iteration decision events, and the
/// \ref vaolib::obs::FlightRecorder post-mortem dumps
/// (VAOLIB_TRACE / VAOLIB_TRACE_RING / VAOLIB_TRACE_DUMP).

#include "obs/execution_report.h"  // IWYU pragma: export
#include "obs/flight_recorder.h"   // IWYU pragma: export
#include "obs/metrics.h"           // IWYU pragma: export
#include "obs/trace.h"             // IWYU pragma: export

/// \defgroup vaolib_server Serving layer
/// The standing-query server (link vaolib_server): length-framed wire
/// codec, the text protocol whose query payloads are ParseQuery/FormatQuery
/// round-trips, multi-tenant \ref vaolib::server::AdmissionController
/// mapping quotas onto scheduler reserves, the tick-fanning
/// \ref vaolib::server::Dispatcher, the transport-independent
/// \ref vaolib::server::StandingQueryServer session layer, and replayable
/// load scenarios shared with scripts/loadgen.py.

#include "server/admission.h"   // IWYU pragma: export
#include "server/dispatcher.h"  // IWYU pragma: export
#include "server/frame.h"       // IWYU pragma: export
#include "server/protocol.h"    // IWYU pragma: export
#include "server/scenario.h"    // IWYU pragma: export
#include "server/server.h"      // IWYU pragma: export

#endif  // VAOLIB_VAOLIB_H_
