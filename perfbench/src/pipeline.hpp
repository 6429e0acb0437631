#pragma once
// The HiDaP pipeline rebuilt from the library's public pieces, with a
// benchmark-side span around each call (layer_trace.hpp). With tracing
// off the spans cost nothing, and the outputs are byte-identical to the
// library's own entry points -- the traced run asserts so before it
// prints a layer table:
//
//   place()        == place_macros(design, context, options, {}, artifacts)
//   evaluate()     == evaluate_placement(...)
//   run_flows()    == compare_flows(...), plus the three winning placements
//   TracedSession  == PlacementSession::run for text-only specs

#include <cstdint>
#include <memory>
#include <string>

#include "core/hidap.hpp"
#include "core/recursive_floorplan.hpp"
#include "eval/flows.hpp"
#include "eval/metrics.hpp"
#include "service/artifact_cache.hpp"

namespace perfbench {

/// Verilog text -> Design ("netlist.parse"), counting bytes and sizes.
hidap::Design parse(const std::string& verilog);

/// Placement -> DEF bytes ("netlist.write_def").
std::string def_bytes(const hidap::Design& design, const hidap::PlacementResult& placement);

/// PlacementContext's three analyses, each under its own span.
struct Context {
  Context(const hidap::Design& design, const hidap::SeqExtractOptions& seq_options);

  hidap::CellAdjacency adjacency;
  hidap::HierTree ht;
  hidap::SeqGraph seq;
};

/// place_macros() rebuilt: curves ("core.curves", skipped when adopted),
/// recursion ("core.recursion"), flipping ("core.flip") and the final
/// legalization ("floorplan.legalize"). Fills absent artifacts like the
/// library does.
hidap::PlacementResult place(const hidap::Design& design, const hidap::CellAdjacency& adjacency,
                             const hidap::HierTree& ht, const hidap::SeqGraph& seq,
                             const hidap::HiDaPOptions& options,
                             hidap::PlacementArtifacts* artifacts = nullptr);

/// evaluate_placement() rebuilt: "place.place_cells", "place.hpwl",
/// "route.congestion", "timing.analyze", "place.density".
hidap::Metrics evaluate(const hidap::Design& design, const hidap::HierTree& ht,
                        const hidap::SeqGraph& seq, const hidap::PlacementResult& placement,
                        const hidap::EvalOptions& options);

/// compare_flows() rebuilt with the same pool structure (the three
/// flows under parallel_invoke, each sweep under parallel_for).
struct FlowsOutput {
  hidap::FlowComparison metrics;
  hidap::PlacementResult indeda;
  hidap::PlacementResult hidap;
  hidap::PlacementResult handfp;
};
FlowsOutput run_flows(const hidap::Design& design, const hidap::FlowOptions& options);

/// PlacementSession::run() rebuilt over the public ArtifactCache, for
/// specs that carry only verilog text and a seed (every other spec field
/// at its default). Cache calls run under "service.lookup"; the parse,
/// context and placement calls under their own layers.
class TracedSession {
 public:
  explicit TracedSession(hidap::HiDaPOptions base);

  struct Outcome {
    std::shared_ptr<const hidap::Design> design;
    hidap::PlacementResult placement;
    bool design_cached = false;
    bool context_cached = false;
    bool curves_cached = false;
    bool plan_cached = false;
  };
  Outcome run(const std::string& verilog, std::uint64_t seed);

  hidap::ArtifactCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  hidap::HiDaPOptions base_;
  hidap::ArtifactCache cache_;
};

}  // namespace perfbench
