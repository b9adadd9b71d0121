#include "owl/parser.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/strings.hpp"

namespace owlcl {

namespace {

enum class Tok : std::uint8_t {
  kLParen,
  kRParen,
  kName,
  kInt,
  kIri,
  kString,
  kColonEq,
  kEof
};

struct Token {
  Tok kind;
  std::string_view text;  // a view into the source document
  std::size_t line;
  std::size_t col;
};

/// Character classes of the lexer, one table lookup per byte.
enum : std::uint8_t { kNameChar = 1, kDigit = 2, kSpace = 4 };

constexpr std::array<std::uint8_t, 256> makeCharClasses() {
  std::array<std::uint8_t, 256> t{};
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kNameChar;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kNameChar;
  for (int c = '0'; c <= '9'; ++c) t[c] = kNameChar | kDigit;
  t['_'] = t['-'] = t['.'] = kNameChar;
  t[' '] = t['\t'] = t['\r'] = t['\n'] = kSpace;
  return t;
}
constexpr std::array<std::uint8_t, 256> kCharClass = makeCharClasses();

bool is(char c, std::uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skipWsAndComments();
    const std::size_t line = line_, col = col_;
    if (pos_ >= text_.size()) return {Tok::kEof, "", line, col};
    const char c = text_[pos_];
    if (c == '(') {
      advance();
      return {Tok::kLParen, "(", line, col};
    }
    if (c == ')') {
      advance();
      return {Tok::kRParen, ")", line, col};
    }
    if (c == '<') {  // <IRI>
      advance();
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '>') advance();
      if (pos_ >= text_.size()) throw ParseError("unterminated IRI", line, col);
      const std::string_view iri = text_.substr(start, pos_ - start);
      advance();  // consume '>'
      return {Tok::kIri, iri, line, col};
    }
    if (c == '"') {  // string literal (no escapes; annotations only)
      advance();
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') advance();
      if (pos_ >= text_.size())
        throw ParseError("unterminated string literal", line, col);
      const std::string_view lit = text_.substr(start, pos_ - start);
      advance();  // consume closing '"'
      return {Tok::kString, lit, line, col};
    }
    if (c == ':' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
      advance();
      advance();
      return {Tok::kColonEq, ":=", line, col};
    }
    // Names and integers never contain a newline: advance the column in
    // one step.
    const std::size_t start = pos_;
    if (is(c, kDigit)) {
      while (pos_ < text_.size() && is(text_[pos_], kDigit)) ++pos_;
      col_ += pos_ - start;
      return {Tok::kInt, text_.substr(start, pos_ - start), line, col};
    }
    if (is(c, kNameChar)) {
      while (pos_ < text_.size()) {
        const char cc = text_[pos_];
        // Keep ':' inside prefixed names (ex:A) but stop before ':=' so
        // Prefix(ex:=<iri>) tokenises as "ex" ":=" "<iri>".
        if (is(cc, kNameChar) ||
            (cc == ':' && !(pos_ + 1 < text_.size() && text_[pos_ + 1] == '='))) {
          ++pos_;
          continue;
        }
        break;
      }
      col_ += pos_ - start;
      return {Tok::kName, text_.substr(start, pos_ - start), line, col};
    }
    throw ParseError(std::string("unexpected character '") + c + "'", line, col);
  }

 private:
  void skipWsAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') advance();
      } else if (is(c, kSpace)) {
        advance();
      } else {
        break;
      }
    }
  }

  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
};

class Parser {
 public:
  Parser(std::string_view text, TBox& tbox) : lexer_(text), tbox_(tbox) {
    cur_ = lexer_.next();
  }

  void parseDocument() {
    while (cur_.kind == Tok::kName && cur_.text == "Prefix") parsePrefix();
    expectName("Ontology");
    expect(Tok::kLParen);
    // Optional ontology IRI and version IRI.
    while (cur_.kind == Tok::kIri) consume();
    while (cur_.kind != Tok::kRParen) parseAxiom();
    expect(Tok::kRParen);
    if (cur_.kind != Tok::kEof)
      throw ParseError("trailing content after Ontology(...)", cur_.line, cur_.col);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError(msg, cur_.line, cur_.col);
  }

  void consume() { cur_ = lexer_.next(); }

  void expect(Tok kind) {
    if (cur_.kind != kind) fail("unexpected token '" + std::string(cur_.text) + "'");
    consume();
  }

  void expectName(std::string_view name) {
    if (cur_.kind != Tok::kName || cur_.text != name)
      fail("expected '" + std::string(name) + "', found '" + std::string(cur_.text) +
           "'");
    consume();
  }

  /// The entity name at the cursor, consumed. The view points into the
  /// source, or into expanded_ for a prefixed name, so it is valid until
  /// the next call.
  std::string_view takeEntityName() {
    if (cur_.kind != Tok::kIri && cur_.kind != Tok::kName)
      fail("expected entity name");
    const std::string_view name = cur_.text;
    const bool iri = cur_.kind == Tok::kIri;
    consume();
    if (iri) return name;
    // Expand a declared prefix; names with undeclared prefixes (or none)
    // are kept verbatim, which keeps hand-written test files terse.
    const std::size_t colon = name.find(':');
    if (colon != std::string_view::npos) {
      auto it = prefixes_.find(name.substr(0, colon));
      if (it != prefixes_.end()) {
        expanded_.assign(it->second);
        expanded_.append(name.substr(colon + 1));
        return expanded_;
      }
    }
    return name;
  }

  void parsePrefix() {
    expectName("Prefix");
    expect(Tok::kLParen);
    if (cur_.kind != Tok::kName) fail("expected prefix name");
    std::string_view pname = cur_.text;
    if (!pname.empty() && pname.back() == ':') pname.remove_suffix(1);
    consume();
    expect(Tok::kColonEq);
    if (cur_.kind != Tok::kIri) fail("expected IRI in Prefix declaration");
    prefixes_.insert_or_assign(std::string(pname), std::string(cur_.text));
    consume();
    expect(Tok::kRParen);
  }

  void parseAxiom() {
    if (cur_.kind != Tok::kName) fail("expected axiom keyword");
    const std::string_view kw = cur_.text;
    consume();
    expect(Tok::kLParen);
    if (kw == "Declaration") {
      parseDeclarationBody();
    } else if (kw == "SubClassOf") {
      const ExprId sub = parseClassExpr();
      const ExprId sup = parseClassExpr();
      tbox_.addSubClassOf(sub, sup);
    } else if (kw == "EquivalentClasses") {
      std::vector<ExprId> cs;
      while (cur_.kind != Tok::kRParen) cs.push_back(parseClassExpr());
      if (cs.size() < 2) fail("EquivalentClasses needs >= 2 operands");
      tbox_.addEquivalentClasses(std::move(cs));
    } else if (kw == "DisjointClasses") {
      std::vector<ExprId> cs;
      while (cur_.kind != Tok::kRParen) cs.push_back(parseClassExpr());
      if (cs.size() < 2) fail("DisjointClasses needs >= 2 operands");
      tbox_.addDisjointClasses(std::move(cs));
    } else if (kw == "SubObjectPropertyOf") {
      const RoleId r = parseRole();
      const RoleId s = parseRole();
      tbox_.addSubObjectPropertyOf(r, s);
    } else if (kw == "TransitiveObjectProperty") {
      tbox_.addTransitiveObjectProperty(parseRole());
    } else if (kw == "AnnotationAssertion") {
      // AnnotationAssertion(<property> <subject> "literal") — property is
      // kept opaque; the subject is a named class.
      takeEntityName();  // annotation property (e.g. rdfs:comment)
      const ConceptId subject = tbox_.declareConcept(takeEntityName());
      if (cur_.kind != Tok::kString) fail("expected string literal");
      tbox_.addAnnotation(subject, std::string(cur_.text));
      consume();
    } else {
      fail("unsupported axiom '" + std::string(kw) + "'");
    }
    expect(Tok::kRParen);
  }

  void parseDeclarationBody() {
    if (cur_.kind != Tok::kName) fail("expected entity kind in Declaration");
    const std::string_view kind = cur_.text;
    consume();
    expect(Tok::kLParen);
    const std::string_view name = takeEntityName();
    if (kind == "Class") {
      tbox_.declareConcept(name);
    } else if (kind == "ObjectProperty") {
      tbox_.declareRole(name);
    } else {
      fail("unsupported Declaration kind '" + std::string(kind) + "'");
    }
    expect(Tok::kRParen);
  }

  RoleId parseRole() { return tbox_.declareRole(takeEntityName()); }

  std::uint32_t parseCardinality() {
    if (cur_.kind != Tok::kInt) fail("expected non-negative integer cardinality");
    std::uint64_t v = 0;
    const char* end = cur_.text.data() + cur_.text.size();
    const auto [ptr, ec] = std::from_chars(cur_.text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > kMaxCardinality)
      fail("cardinality " + std::string(cur_.text) + " exceeds the maximum " +
           std::to_string(kMaxCardinality));
    consume();
    return static_cast<std::uint32_t>(v);
  }

  ExprId parseClassExpr() {
    ExprFactory& f = tbox_.exprs();
    if (cur_.kind == Tok::kIri) return f.atom(tbox_.declareConcept(takeEntityName()));
    if (cur_.kind != Tok::kName) fail("expected class expression");
    const std::string_view head = cur_.text;
    if (head == "owl:Thing") {
      consume();
      return f.top();
    }
    if (head == "owl:Nothing") {
      consume();
      return f.bottom();
    }
    if (head == "ObjectIntersectionOf" || head == "ObjectUnionOf") {
      consume();
      expect(Tok::kLParen);
      std::vector<ExprId> cs;
      while (cur_.kind != Tok::kRParen) cs.push_back(parseClassExpr());
      expect(Tok::kRParen);
      if (cs.size() < 2) fail(std::string(head) + " needs >= 2 operands");
      return head == "ObjectIntersectionOf" ? f.conj(cs) : f.disj(cs);
    }
    if (head == "ObjectComplementOf") {
      consume();
      expect(Tok::kLParen);
      const ExprId c = parseClassExpr();
      expect(Tok::kRParen);
      return f.negate(c);
    }
    if (head == "ObjectSomeValuesFrom" || head == "ObjectAllValuesFrom") {
      consume();
      expect(Tok::kLParen);
      const RoleId r = parseRole();
      const ExprId c = parseClassExpr();
      expect(Tok::kRParen);
      return head == "ObjectSomeValuesFrom" ? f.exists(r, c) : f.forall(r, c);
    }
    if (head == "ObjectMinCardinality" || head == "ObjectMaxCardinality" ||
        head == "ObjectExactCardinality") {
      consume();
      expect(Tok::kLParen);
      const std::uint32_t n = parseCardinality();
      const RoleId r = parseRole();
      const ExprId c = cur_.kind == Tok::kRParen ? f.top() : parseClassExpr();
      expect(Tok::kRParen);
      if (head == "ObjectMinCardinality") return f.atLeast(n, r, c);
      if (head == "ObjectMaxCardinality") return f.atMost(n, r, c);
      return f.conj(f.atLeast(n, r, c), f.atMost(n, r, c));
    }
    // A bare name is a named class.
    return f.atom(tbox_.declareConcept(takeEntityName()));
  }

  Lexer lexer_;
  TBox& tbox_;
  Token cur_{Tok::kEof, "", 0, 0};
  std::unordered_map<std::string, std::string, StringHash, std::equal_to<>> prefixes_;
  std::string expanded_;  // takeEntityName's prefix-expansion buffer
};

}  // namespace

void parseFunctionalSyntax(std::string_view text, TBox& tbox) {
  OWLCL_ASSERT_MSG(!tbox.frozen(), "cannot parse into a frozen TBox");
  Parser p(text, tbox);
  p.parseDocument();
}

void parseFunctionalSyntaxFile(const std::string& path, TBox& tbox) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open ontology file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  parseFunctionalSyntax(text, tbox);
}

}  // namespace owlcl
