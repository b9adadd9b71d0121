// Umbrella header: the public API of the owlcl library.
//
// owlcl is a C++ reproduction of "A Parallel Shared-Memory Architecture
// for OWL Ontology Classification" (Quan & Haarslev, ICPP 2017): a
// thread-level parallel TBox classifier over shared atomic P/K sets, with
// a from-scratch SHQ tableau reasoner, an EL+ saturation reasoner, and a
// deterministic virtual-time SMP simulator for scalability studies.
//
// Typical flow:
//   TBox tbox;                       // build or parse an ontology
//   parseFunctionalSyntaxFile(path, tbox);
//   TableauReasoner reasoner(tbox);  // plug-in (preprocesses + freezes)
//   ParallelClassifier classifier(tbox, reasoner);
//   ThreadPool pool(8);
//   RealExecutor exec(pool);
//   ClassificationResult r = classifier.classify(exec);
//   r.taxonomy.print(std::cout, tbox);
#pragma once

// Ontology model
#include "owl/el_fragment.hpp"
#include "owl/expr.hpp"
#include "owl/ids.hpp"
#include "owl/metrics.hpp"
#include "owl/obo_parser.hpp"
#include "owl/parser.hpp"
#include "owl/printer.hpp"
#include "owl/rolebox.hpp"
#include "owl/tbox.hpp"

// Reasoners
#include "elcore/el_reasoner.hpp"
#include "reasoner/pseudo_model.hpp"
#include "reasoner/tableau_reasoner.hpp"

// Parallel classification (the paper's architecture)
#include "core/el_plugin.hpp"
#include "core/executor.hpp"
#include "core/parallel_classifier.hpp"
#include "core/pk_store.hpp"
#include "core/plugin.hpp"
#include "core/real_executor.hpp"
#include "core/incremental.hpp"
#include "core/sequential.hpp"

// Fault tolerance (guarded plug-in calls, deterministic fault injection)
// and crash consistency (write-ahead journal + snapshots + resume)
#include "robust/guarded_plugin.hpp"
#include "robust/fault_injector.hpp"
#include "robust/journal.hpp"
#include "robust/checkpoint.hpp"
#include "robust/delta_journal.hpp"
// Serving (long-lived classification-as-a-service: `owlcl serve`)
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"

#include "taxonomy/diff.hpp"
#include "taxonomy/taxonomy.hpp"
#include "taxonomy/verify.hpp"

// Substrates
#include "parallel/atomic_bitmatrix.hpp"
#include "parallel/cancellation.hpp"
#include "parallel/concurrent_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

// Scalability tooling
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "simsched/sweep.hpp"
#include "simsched/virtual_executor.hpp"
