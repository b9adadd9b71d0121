#include "corpus.hpp"

#include <stdexcept>

#include "owl/printer.hpp"

namespace bench {

owlcl::PaperOntologyRow paperRow(const std::string& name, std::uint64_t seed) {
  for (const auto& suite : {owlcl::oreEl2015Suite(), owlcl::oreQcr2014Suite()})
    for (owlcl::PaperOntologyRow row : suite)
      if (row.config.name == name) {
        row.config.seed += 1000 * seed;
        return row;
      }
  throw std::invalid_argument("unknown paper row: " + name);
}

Corpus makeCorpus(const owlcl::PaperOntologyRow& row) {
  Corpus c;
  c.row = row;
  c.qcr = row.paperQcrs > 0;
  c.gen = owlcl::generateOntology(row.config);
  c.metrics = owlcl::computeMetrics(*c.gen.tbox);
  c.text = owlcl::toFunctionalSyntaxDocument(*c.gen.tbox);
  return c;
}

}  // namespace bench
