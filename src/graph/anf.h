// ANF: approximate neighborhood function (Palmer, Gibbons & Faloutsos,
// KDD'02) via Flajolet–Martin sketches — the tool the Kronecker-graphs
// papers themselves used for hop plots on large graphs.
//
// Each node carries `num_trials` FM bitmasks; one synchronous "expand"
// round per hop ORs every node's masks with its neighbors'. After round h
// the masks sketch |{v : dist(u,v) ≤ h}| and N(h) is the sum of the
// per-node estimates.

#ifndef DPKRON_GRAPH_ANF_H_
#define DPKRON_GRAPH_ANF_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/graph_view.h"

namespace dpkron {

struct AnfOptions {
  // Parallel FM trials; the estimate averages lowest-zero-bit positions
  // across trials. 32 gives ~ ±7% typical relative error.
  uint32_t num_trials = 32;
};

// Approximate hop plot; same shape as ExactHopPlot's result. The
// expansion stops when every sketch is saturated (no mask changed in a
// round), and after 64 hops at the latest.
std::vector<uint64_t> ApproxHopPlot(GraphView graph, Rng& rng,
                                    const AnfOptions& options = {});

}  // namespace dpkron

#endif  // DPKRON_GRAPH_ANF_H_
