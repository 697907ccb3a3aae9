#include "src/estimation/features.h"

#include <algorithm>
#include <cstdio>

#include "src/graph/degree.h"

namespace dpkron {

std::string GraphFeatures::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "E=%.6g H=%.6g Delta=%.6g T=%.6g", edges,
                hairpins, triangles, tripins);
  return buf;
}

GraphFeatures ComputeFeaturesCached(GraphView graph) {
  return FeaturesFromNodeStats(graph.NumEdges(), *CachedNodeStats(graph));
}

GraphFeatures FeaturesFromNodeStats(uint64_t num_edges,
                                    const NodeStats& stats) {
  uint64_t wedges = 0, tripins = 0;
  for (const uint64_t d : stats.degrees) {
    wedges += d * (d - 1) / 2;
    tripins += d * (d - 1) * (d - 2) / 6;
  }
  GraphFeatures f;
  f.edges = static_cast<double>(num_edges);
  f.hairpins = static_cast<double>(wedges);
  f.triangles = static_cast<double>(TotalTriangles(stats));
  f.tripins = static_cast<double>(tripins);
  return f;
}

GraphFeatures FeaturesFromDegrees(const std::vector<double>& degrees,
                                  double triangles) {
  GraphFeatures f;
  f.edges = EdgesFromDegrees(degrees);
  f.hairpins = HairpinsFromDegrees(degrees);
  f.tripins = TripinsFromDegrees(degrees);
  f.triangles = triangles;
  return f;
}

GraphFeatures ClampFeatures(const GraphFeatures& features, double floor) {
  GraphFeatures f = features;
  f.edges = std::max(f.edges, floor);
  f.hairpins = std::max(f.hairpins, floor);
  f.triangles = std::max(f.triangles, floor);
  f.tripins = std::max(f.tripins, floor);
  return f;
}

GraphFeatures FromMoments(const SkgMoments& moments) {
  GraphFeatures f;
  f.edges = moments.edges;
  f.hairpins = moments.hairpins;
  f.triangles = moments.triangles;
  f.tripins = moments.tripins;
  return f;
}

}  // namespace dpkron
