#include "queries.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace bench {

using owlcl::ConceptId;
using Kind = ReadQuery::Kind;

void LeafRegistry::attach(std::size_t k, ConceptId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ConceptId>& had = parents_.at(k);
  if (std::find(had.begin(), had.end(), parent) == had.end()) had.push_back(parent);
}

bool LeafRegistry::mayDescend(std::string_view name, ConceptId above,
                              const owlcl::GroundTruth& truth) const {
  if (name.size() <= prefix_.size() || name.substr(0, prefix_.size()) != prefix_)
    return false;
  std::size_t k = 0;
  for (char ch : name.substr(prefix_.size())) {
    if (ch < '0' || ch > '9' || k > parents_.size()) return false;
    k = k * 10 + static_cast<std::size_t>(ch - '0');
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (k >= parents_.size()) return false;
  for (ConceptId p : parents_[k])
    if (truth.subsumes(above, p)) return true;
  return false;
}

ConceptId drawConcept(const Corpus& c, owlcl::Xoshiro256& rng) {
  const owlcl::GroundTruth& truth = c.gen.truth;
  ConceptId x = 0;
  for (int tries = 0; tries < 64; ++tries) {
    x = static_cast<ConceptId>(rng.below(truth.unsat.size()));
    if (truth.satisfiable(x)) break;
  }
  return x;
}

namespace {

/// Top-level elements of the JSON array whose '[' is at `pos`.
bool splitArray(std::string_view s, std::size_t pos,
                std::vector<std::string_view>* out) {
  if (pos >= s.size() || s[pos] != '[') return false;
  int depth = 0;
  bool inString = false;
  std::size_t start = 0;
  for (std::size_t i = pos + 1; i < s.size(); ++i) {
    const char ch = s[i];
    if (inString) {
      if (ch == '\\')
        ++i;
      else if (ch == '"')
        inString = false;
      continue;
    }
    if (ch == '"') {
      inString = true;
    } else if (ch == '{' || ch == '[') {
      if (depth++ == 0) start = i;
    } else if (ch == '}' || ch == ']') {
      if (depth == 0) return ch == ']';
      if (--depth == 0) out->push_back(s.substr(start, i + 1 - start));
    }
  }
  return false;
}

/// The strings of the array that follows `key` in `obj`. Concept names
/// carry no escapes other than \" and \\.
bool stringArray(std::string_view obj, std::string_view key,
                 std::vector<std::string>* out) {
  std::size_t pos = obj.find(key);
  if (pos == std::string_view::npos) return false;
  pos += key.size();
  if (pos >= obj.size() || obj[pos] != '[') return false;
  for (++pos; pos < obj.size();) {
    const char ch = obj[pos];
    if (ch == ']') return true;
    if (ch == ',') {
      ++pos;
      continue;
    }
    if (ch != '"') return false;
    std::string name;
    for (++pos; pos < obj.size() && obj[pos] != '"'; ++pos) {
      if (obj[pos] == '\\' && pos + 1 < obj.size()) ++pos;
      name.push_back(obj[pos]);
    }
    ++pos;
    out->push_back(std::move(name));
  }
  return false;
}

bool fail(std::string* why, std::string msg) {
  if (why != nullptr) *why = std::move(msg);
  return false;
}

}  // namespace

std::vector<ReadQuery> drawQueries(const Corpus& c, owlcl::Xoshiro256& rng,
                                   std::size_t size) {
  // The op split of bench_serve's mixedWorkload: 5 in 10 subs, 2 sat,
  // 3 descendants, with both concepts drawn uniformly.
  std::vector<ReadQuery> qs(size);
  for (ReadQuery& q : qs) {
    q.a = drawConcept(c, rng);
    q.b = drawConcept(c, rng);
    const std::uint64_t roll = rng.below(10);
    q.kind = roll < 5 ? Kind::kSubs : roll < 7 ? Kind::kSat : Kind::kDescendants;
  }
  return qs;
}

std::string batchLine(const Corpus& c, const std::vector<ReadQuery>& qs) {
  const owlcl::TBox& t = *c.gen.tbox;
  std::string line = R"({"op":"batch","queries":[)";
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ReadQuery& q = qs[i];
    if (i != 0) line += ',';
    switch (q.kind) {
      case Kind::kSubs:
        line += R"({"op":"subs","sub":")";
        owlcl::jsonEscapeInto(t.conceptName(q.a), line);
        line += R"(","sup":")";
        owlcl::jsonEscapeInto(t.conceptName(q.b), line);
        break;
      case Kind::kSat:
        line += R"({"op":"sat","concept":")";
        owlcl::jsonEscapeInto(t.conceptName(q.a), line);
        break;
      case Kind::kDescendants:
        line += R"({"op":"descendants","concept":")";
        owlcl::jsonEscapeInto(t.conceptName(q.a), line);
        break;
    }
    line += "\"}";
  }
  line += "]}";
  return line;
}

bool checkBatch(std::string_view response, const Corpus& c,
                const std::vector<ReadQuery>& qs, const LeafRegistry* leaves,
                std::string* why) {
  if (response.find(R"("ok":true,"op":"batch")") == std::string_view::npos)
    return fail(why, "batch failed: " + std::string(response.substr(0, 200)));
  static constexpr std::string_view kResults = R"("results":)";
  const std::size_t at = response.find(kResults);
  std::vector<std::string_view> items;
  if (at == std::string_view::npos ||
      !splitArray(response, at + kResults.size(), &items))
    return fail(why, "malformed batch response");
  if (items.size() != qs.size())
    return fail(why, owlcl::strprintf("%zu answers for %zu queries",
                                      items.size(), qs.size()));
  const owlcl::GroundTruth& truth = c.gen.truth;
  const owlcl::TBox& t = *c.gen.tbox;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ReadQuery& q = qs[i];
    const std::string_view item = items[i];
    if (item.find(R"("ok":true)") == std::string_view::npos)
      return fail(why, "query failed: " + std::string(item));
    if (q.kind != Kind::kDescendants) {
      const bool expect = q.kind == Kind::kSubs ? truth.subsumes(q.b, q.a)
                                                : truth.satisfiable(q.a);
      if (item.find(expect ? R"("result":true)" : R"("result":false)") ==
          std::string_view::npos)
        return fail(why, "wrong verdict " + std::string(item) + " for " +
                             t.conceptName(q.a));
      continue;
    }
    std::vector<std::string> names;
    if (!stringArray(item, R"("concepts":)", &names))
      return fail(why, "malformed descendants answer");
    std::size_t base = 0;
    for (const std::string& name : names) {
      const ConceptId d = t.findConcept(name);
      if (d != owlcl::kInvalidConcept) {
        if (d == q.a || !truth.subsumes(q.a, d) || truth.subsumes(d, q.a))
          return fail(why, name + " is no strict descendant of " +
                               t.conceptName(q.a));
        ++base;
        continue;
      }
      if (leaves == nullptr || !leaves->mayDescend(name, q.a, truth))
        return fail(why, "unexpected descendant " + name + " of " +
                             t.conceptName(q.a));
    }
    std::size_t expected = 0;
    for (ConceptId d = 0; d < truth.unsat.size(); ++d)
      if (d != q.a && truth.subsumes(q.a, d) && !truth.subsumes(d, q.a))
        ++expected;
    if (base != expected)
      return fail(why, owlcl::strprintf(
                           "descendants of %s: %zu base concepts, truth has %zu",
                           t.conceptName(q.a).c_str(), base, expected));
  }
  return true;
}

}  // namespace bench
