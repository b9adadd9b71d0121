// Paper corpora for bench_e2e: Table IV/V rows generated in-process by
// src/gen (no downloads) and serialised to functional syntax, so every run
// starts from ontology text as a user of owlcl would.
#pragma once

#include <cstdint>
#include <string>

#include "gen/generator.hpp"
#include "owl/metrics.hpp"

namespace bench {

struct Corpus {
  owlcl::PaperOntologyRow row;   ///< config.seed already shifted by the workload seed
  owlcl::GeneratedOntology gen;  ///< generator TBox + GroundTruth
  owlcl::OntologyMetrics metrics;
  std::string text;  ///< functional-syntax serialisation
  /// Table V row: classified with route auto, shared cache and model
  /// merging. Table IV rows are always routed.
  bool qcr = false;
};

/// The Table IV/V row called `name`, its generator seed shifted by `seed`
/// (0 reproduces the published row seeds; any other seed regenerates the
/// row with the same published metrics). Throws std::invalid_argument for
/// an unknown name.
owlcl::PaperOntologyRow paperRow(const std::string& name, std::uint64_t seed);

/// Generates, measures and serialises one row.
Corpus makeCorpus(const owlcl::PaperOntologyRow& row);

}  // namespace bench
