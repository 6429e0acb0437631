#include "netlist/verilog_parser.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <system_error>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/failpoint.hpp"
#include "util/string_utils.hpp"

namespace hidap {

namespace {

// ------------------------------------------------------- character classes

// Classes of the "C" locale, one table lookup per byte.
enum : std::uint8_t {
  kSpace = 1,        ///< ' ' and '\t'..'\r'
  kDigit = 2,        ///< '0'..'9'
  kIdentStart = 4,   ///< letters and '_'
  kIdentChar = 8,    ///< letters, digits, '_', '$'
  kNumberChar = 16,  ///< digits, '.', 'e', 'E', '-', '+'
  kSkipStart = 32,   ///< space or '/': where whitespace and comments may begin
};

constexpr std::array<std::uint8_t, 256> make_classes() {
  std::array<std::uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    const bool space = c == ' ' || (c >= '\t' && c <= '\r');
    const bool digit = c >= '0' && c <= '9';
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    std::uint8_t k = 0;
    if (space) k |= kSpace | kSkipStart;
    if (c == '/') k |= kSkipStart;
    if (digit) k |= kDigit;
    if (alpha || c == '_') k |= kIdentStart;
    if (alpha || digit || c == '_' || c == '$') k |= kIdentChar;
    if (digit || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') k |= kNumberChar;
    t[static_cast<std::size_t>(c)] = k;
  }
  return t;
}

constexpr std::array<std::uint8_t, 256> kClass = make_classes();

inline bool is(char c, std::uint8_t cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

// ------------------------------------------------------------- name hashes

// FNV-1a, one multiply per byte: net names are a few bytes long, too
// short for the word-at-a-time hash of util/hash.hpp to pay off.
std::uint64_t hash_name(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

// ------------------------------------------------------------ error lines
// Tokens and AST nodes carry byte offsets; a line number is counted only
// for an error actually thrown.

int line_at(std::string_view src, std::size_t offset) {
  return 1 + static_cast<int>(std::count(src.begin(),
                                         src.begin() + static_cast<std::ptrdiff_t>(offset), '\n'));
}

[[noreturn]] void fail_at(std::string_view src, std::size_t offset, const std::string& msg) {
  throw VerilogParseError(msg, line_at(src, offset));
}

// ---------------------------------------------------------- module scopes

// Bit-blasted local net name.
std::string bit_name(std::string_view base, int bit) {
  std::string name(base);
  if (bit >= 0) name += "[" + std::to_string(bit) + "]";
  return name;
}

/// Open-addressing map from a local net name (a view into the source
/// buffer or a Scope's bit-name storage) and its hash_name to an entry.
/// A name is hashed once, right after it is scanned, and probes with that
/// value. Entries are dense in insertion order; the table holds entry
/// indices, so a probe touches 4-byte cells and the one entry it compares.
class NameTable {
 public:
  struct Entry {
    std::string_view key;
    std::uint64_t hash = 0;
    int slot = -1;             ///< net slot; -1 = name has none (yet)
    bool port_vector = false;  ///< first port declaration is a vector
    bool port = false;         ///< declared as a port
  };

  /// Index of `key`'s entry, -1 when absent.
  int find(std::string_view key, std::uint64_t h) const {
    if (cells_.empty()) return -1;
    return static_cast<int>(cells_[probe(key, h)]) - 1;
  }

  /// Index of `key`'s entry, created on first use.
  int insert(std::string_view key, std::uint64_t h) {
    if (2 * (entries_.size() + 1) > cells_.size()) grow();
    std::uint32_t& cell = cells_[probe(key, h)];
    if (cell == 0) {
      entries_.push_back({key, h});
      cell = static_cast<std::uint32_t>(entries_.size());
    }
    return static_cast<int>(cell) - 1;
  }

  Entry& entry(int i) { return entries_[static_cast<std::size_t>(i)]; }
  const Entry& entry(int i) const { return entries_[static_cast<std::size_t>(i)]; }

 private:
  // Fibonacci hashing: FNV-1a mixes upward only, so the start cell comes
  // from the high bits of a product.
  std::size_t probe(std::string_view key, std::uint64_t h) const {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
    while (cells_[i] != 0) {
      const Entry& e = entries_[cells_[i] - 1];
      if (e.hash == h && e.key == key) break;
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    const std::size_t capacity = std::max<std::size_t>(64, 2 * cells_.size());
    cells_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      cells_[probe(entries_[e].key, entries_[e].hash)] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> cells_;  ///< entry index + 1, 0 = empty; power-of-two size, at most half full
  int shift_ = 64;                    ///< 64 - log2(cells_.size())
};

/// Per-definition net table, built while the module is parsed: every
/// local net name (scalar wire, port, vector bit, or implicitly declared
/// net) gets a slot, and an instance of the module binds its nets in a
/// std::vector<NetId> indexed by slot.
struct Scope {
  NameTable names;
  std::vector<std::string_view> slot_name;  ///< local (bit-blasted) name
  std::size_t slot_name_bytes = 0;          ///< sum of the slot names' sizes
  /// Slots [0, declared) are declared wires and ports, in declaration
  /// order; each instance creates them on entry unless bound by the parent.
  /// Later slots are nets first named by a connection, created on first use.
  int declared = 0;
  std::deque<std::string> bit_names;  ///< storage behind vector-bit names

  /// Slot of entry `e`, assigned on first use.
  int slot_of(int e) {
    NameTable::Entry& entry = names.entry(e);
    if (entry.slot < 0) {
      entry.slot = static_cast<int>(slot_name.size());
      slot_name.push_back(entry.key);
      slot_name_bytes += entry.key.size();
    }
    return entry.slot;
  }

  /// Entry of the bit-blasted name "base[bit]".
  int bit_entry(std::string_view base, int bit) {
    const std::string name = bit_name(base, bit);
    const std::uint64_t h = hash_name(name);
    const int e = names.find(name, h);
    return e >= 0 ? e : names.insert(bit_names.emplace_back(name), h);
  }
};

// --------------------------------------------------------------- AST types
// Names are views into the source buffer, which outlives the parse. A
// chunk's AST lives in flat vectors: a module holds ranges of its chunk's
// `instances` and `conns`, an instance ranges of `params` and `conns`.
// Offsets are into the whole buffer.

/// A //HIDAP_ comment line: the text after "//" and its offset.
struct Directive {
  std::string_view text;
  std::size_t offset = 0;
};

struct Connection {
  std::string_view pin;
  int slot = -1;         ///< net slot in the module's Scope (its name's entry until
                         ///< the module ends); -1 = unconnected .pin()
  bool bit_ref = false;  ///< the net was written as name[bit]
};

struct Param {
  std::string_view key;
  double value = 0.0;
};

/// What an instance's definition name says before elaboration.
enum class DefKind : std::uint8_t { Dff, Comb, PinIn, PinOut, UnknownPrimitive, Other };

DefKind classify(std::string_view def_name) {
  if (!starts_with(def_name, "HIDAP_")) return DefKind::Other;  // a macro or a module
  if (def_name == "HIDAP_DFF") return DefKind::Dff;
  if (def_name == "HIDAP_COMB") return DefKind::Comb;
  if (def_name == "HIDAP_PIN_IN") return DefKind::PinIn;
  if (def_name == "HIDAP_PIN_OUT") return DefKind::PinOut;
  return DefKind::UnknownPrimitive;
}

struct Instance {
  std::string_view def_name;
  std::string_view inst_name;
  std::uint32_t param_begin = 0, param_end = 0;
  std::uint32_t conn_begin = 0, conn_end = 0;
  std::size_t offset = 0;  ///< of the definition name
  DefKind kind = DefKind::Other;
};

struct ModuleDef {
  std::string_view name;
  std::uint32_t inst_begin = 0, inst_end = 0;
  std::uint32_t conn_begin = 0, conn_end = 0;  ///< all connections of its instances
};

/// The AST of one chunk of the source: whole module definitions and the
/// directives between them, in source order.
struct ChunkAst {
  std::vector<ModuleDef> modules;
  std::deque<Scope> scopes;  ///< per module; a deque, as names view into its elements
  std::vector<Instance> instances;
  std::vector<Param> params;
  std::vector<Connection> conns;
  std::vector<Directive> directives;
};

/// Value of an instance parameter (the last assignment wins), `fallback`
/// when absent.
double param(const ChunkAst& ast, const Instance& inst, std::string_view key,
             double fallback) {
  for (std::uint32_t i = inst.param_end; i > inst.param_begin; --i) {
    if (ast.params[i - 1].key == key) return ast.params[i - 1].value;
  }
  return fallback;
}

// ------------------------------------------------------------------ parser

/// Recursive descent straight over the buffer: every rule scans the shape
/// it expects at the cursor. A token is classified only for an error
/// message or to tell a statement's kind.
///
/// A parser reads the chunk [begin, end) of `text` into `ast`. Error
/// lines and offsets count from the start of `text`. A chunk that is not
/// the last must end where a block comment is closed: one left open
/// might close in the next chunk, so the parser fails there instead.
class Parser {
 public:
  Parser(std::string_view text, std::size_t begin, std::size_t end, ChunkAst& ast)
      : text_(text),
        end_(text.data() + end),
        p_(text.data() + begin),
        last_chunk_(end == text.size()),
        ast_(ast) {
    reserve();
  }

  void parse_all() {
    skip();
    while (p_ != end_) {
      expect_keyword("module");
      parse_module();
      skip();
    }
  }

 private:
  enum class TokKind { Ident, Number, Punct, End };

  std::size_t offset(const char* at) const { return static_cast<std::size_t>(at - text_.data()); }

  // Sizes the flat vectors from a count of their marks: an instance ends
  // in ';', a connection or parameter begins with '.', a parameter list
  // with '#'. Fixed-size blocks with byte counters, so compilers
  // vectorize the count.
  void reserve() {
    constexpr std::ptrdiff_t kBlock = 240;  // a multiple of the vector width, below 256
    std::size_t semis = 0, dots = 0, hashes = 0;
    const char* p = p_;
    for (; end_ - p >= kBlock; p += kBlock) {
      std::uint8_t s = 0, d = 0, h = 0;
      for (std::ptrdiff_t i = 0; i < kBlock; ++i) {
        s += p[i] == ';';
        d += p[i] == '.';
        h += p[i] == '#';
      }
      semis += s;
      dots += d;
      hashes += h;
    }
    for (; p != end_; ++p) {
      semis += *p == ';';
      dots += *p == '.';
      hashes += *p == '#';
    }
    ast_.instances.reserve(semis);
    ast_.conns.reserve(dots);
    ast_.params.reserve(hashes);
  }

  // Skips whitespace and comments; //HIDAP_ comment lines are kept as
  // directives. Inline only the test for the common case, a token
  // right at the cursor.
  void skip() {
    if (p_ != end_ && is(*p_, kSkipStart)) skip_space();
  }

  [[gnu::noinline]] void skip_space() {
    while (p_ != end_ && is(*p_, kSkipStart)) {
      if (*p_ != '/') {
        ++p_;
      } else if (end_ - p_ >= 2 && p_[1] == '/') {
        const char* const text = p_ + 2;
        const void* const newline = std::memchr(text, '\n', static_cast<std::size_t>(end_ - text));
        p_ = newline ? static_cast<const char*>(newline) : end_;
        const std::string_view rest(text, static_cast<std::size_t>(p_ - text));
        if (starts_with(rest, "HIDAP_")) ast_.directives.push_back({rest, offset(text - 2)});
      } else if (end_ - p_ >= 2 && p_[1] == '*') {
        const std::string_view rest(p_ + 2, static_cast<std::size_t>(end_ - p_ - 2));
        const std::size_t close = rest.find("*/");
        if (close == std::string_view::npos) {
          if (!last_chunk_) fail("block comment open at a chunk cut");
          p_ = end_;
        } else {
          p_ = rest.data() + close + 2;
        }
      } else {
        return;  // a lone '/' is punctuation
      }
    }
  }

  // Kind and text of the token at the cursor (after skip()), without
  // consuming it; `end` receives where it stops.
  TokKind token_at(std::string_view& text, const char*& end) const {
    const char* q = p_;
    if (q == end_) {
      text = {};
      end = end_;
      return TokKind::End;
    }
    const char c = *q++;
    TokKind kind = TokKind::Punct;
    if (is(c, kIdentStart)) {
      while (q != end_ && is(*q, kIdentChar)) ++q;
      kind = TokKind::Ident;
    } else if (c == '\\') {  // escaped identifier: up to whitespace
      while (q != end_ && !is(*q, kSpace)) ++q;
      text = std::string_view(p_ + 1, static_cast<std::size_t>(q - p_ - 1));
      end = q;
      return TokKind::Ident;
    } else if (is(c, kDigit) ||
               // Only a sign followed by a digit or '.' begins a number; a
               // lone '-' or '+' is punctuation.
               ((c == '-' || c == '+') && q != end_ && (is(*q, kDigit) || *q == '.'))) {
      while (q != end_ && is(*q, kNumberChar)) ++q;
      kind = TokKind::Number;
    }
    text = std::string_view(p_, static_cast<std::size_t>(q - p_));
    end = q;
    return kind;
  }

  [[noreturn]] void fail(const std::string& msg) const { fail_at(text_, offset(p_), msg); }

  [[noreturn]] void fail_expected(const char* what) const {
    std::string_view text;
    const char* end = nullptr;
    token_at(text, end);
    fail(std::string("expected ") + what + ", got '" + std::string(text) + "'");
  }

  // An identifier at the cursor, plain or escaped.
  std::string_view ident(const char* what) {
    skip();
    const char* q = p_;
    if (q == end_ || !is(*q, kIdentStart)) return escaped_ident(what);
    for (++q; q != end_ && is(*q, kIdentChar); ++q) {
    }
    const std::string_view name(p_, static_cast<std::size_t>(q - p_));
    p_ = q;
    return name;
  }

  [[gnu::noinline]] std::string_view escaped_ident(const char* what) {
    if (p_ == end_ || *p_ != '\\') fail_expected(what);
    std::string_view name;
    token_at(name, p_);
    return name;
  }

  void expect_keyword(const char* kw) {
    skip();
    const char* const at = p_;
    const std::string_view word = ident(kw);
    if (word != kw) {
      fail_at(text_, offset(at),
              "expected '" + std::string(kw) + "', got '" + std::string(word) + "'");
    }
  }

  bool accept(char c) {
    skip();
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!accept(c)) fail_punct(c);
  }

  [[noreturn, gnu::noinline]] void fail_punct(char c) const {
    std::string_view text;
    const char* end = nullptr;
    if (token_at(text, end) != TokKind::Punct) fail_expected("punctuation");
    fail(std::string("expected '") + c + "', got '" + std::string(text) + "'");
  }

  // The number token at the cursor, consumed.
  std::string_view number() {
    skip();
    std::string_view text;
    const char* end = nullptr;
    if (token_at(text, end) != TokKind::Number) fail_expected("number");
    p_ = end;
    return text;
  }

  /// A real-valued parameter: the whole token must be a decimal number.
  double parse_real() {
    const std::string_view t = number();
    std::string_view s = t;
    if (s.front() == '+') s.remove_prefix(1);  // from_chars takes no '+'
    double value = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || end != s.data() + s.size()) {
      fail_at(text_, offset(t.data()), "bad number '" + std::string(t) + "'");
    }
    return value;
  }

  /// A range bound or bit index: decimal digits only, within int32.
  int parse_index() {
    const std::string_view t = number();
    const char* const last = t.data() + t.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(t.data(), last, value);
    if (!is(t.front(), kDigit) || ec != std::errc{} || end != last) {
      fail_at(text_, offset(t.data()), "bad bit index '" + std::string(t) + "'");
    }
    return value;
  }

  void parse_module() {
    ModuleDef mod;
    mod.name = ident("module name");
    // The header port list carries no information the declarations do not.
    if (accept('(')) {
      if (!accept(')')) {
        while (true) {
          ident("port name");
          if (accept(')')) break;
          expect(',');
        }
      }
    }
    expect(';');
    Scope& scope = ast_.scopes.emplace_back();
    decls_.clear();
    mod.inst_begin = static_cast<std::uint32_t>(ast_.instances.size());
    mod.conn_begin = static_cast<std::uint32_t>(ast_.conns.size());
    while (true) {
      skip();
      if (p_ == end_) fail("unexpected end of file inside module");
      const char* const at = p_;
      const std::string_view word = ident("statement");
      if (word == "endmodule") break;
      if (word == "wire" || word == "input" || word == "output") {
        parse_decl(word != "wire");
      } else {
        parse_instance(scope, word, offset(at));
      }
    }
    mod.inst_end = static_cast<std::uint32_t>(ast_.instances.size());
    mod.conn_end = static_cast<std::uint32_t>(ast_.conns.size());
    assign_slots(scope, mod);
    ast_.modules.push_back(mod);
  }

  // Slot order: declared wires and ports in declaration order, then the
  // nets connections name first, in connection order. Until here a
  // connection's `slot` holds its name's entry.
  void assign_slots(Scope& scope, const ModuleDef& mod) {
    for (const Decl& d : decls_) {
      if (d.is_port) {
        NameTable::Entry& e = scope.names.entry(scope.names.insert(d.name, d.hash));
        if (!e.port) e.port_vector = d.msb >= 0;
        e.port = true;
      }
      if (d.msb < 0) {
        scope.slot_of(scope.names.insert(d.name, d.hash));
        continue;
      }
      const int hi = std::max(d.msb, d.lsb);
      for (std::int64_t b = std::min(d.msb, d.lsb); b <= hi; ++b) {
        scope.slot_of(scope.bit_entry(d.name, static_cast<int>(b)));
      }
    }
    scope.declared = static_cast<int>(scope.slot_name.size());
    for (std::uint32_t c = mod.conn_begin; c < mod.conn_end; ++c) {
      Connection& conn = ast_.conns[c];
      if (conn.slot >= 0) conn.slot = scope.slot_of(conn.slot);
    }
  }

  void parse_decl(bool is_port) {
    Decl proto;
    proto.is_port = is_port;
    if (accept('[')) {
      skip();
      const std::size_t at = offset(p_);
      proto.msb = parse_index();
      expect(':');
      proto.lsb = parse_index();
      expect(']');
      // A net per bit: a range wider than the whole input cannot be a
      // real design, only a request to allocate without bound.
      if (std::abs(std::int64_t{proto.msb} - proto.lsb) + 1 >
          static_cast<std::int64_t>(text_.size())) {
        fail_at(text_, at, "range [" + std::to_string(proto.msb) + ":" +
                               std::to_string(proto.lsb) + "] is wider than the input");
      }
    }
    while (true) {
      Decl& d = decls_.emplace_back(proto);
      d.name = ident("wire name");
      d.hash = hash_name(d.name);
      if (accept(';')) break;
      expect(',');
    }
  }

  void parse_instance(Scope& scope, std::string_view def_name, std::size_t at) {
    Instance inst;
    inst.offset = at;
    inst.def_name = def_name;
    inst.kind = classify(def_name);
    inst.param_begin = static_cast<std::uint32_t>(ast_.params.size());
    if (accept('#')) {
      expect('(');
      if (!accept(')')) {
        while (true) {
          expect('.');
          const std::string_view key = ident("parameter name");
          expect('(');
          ast_.params.push_back({key, parse_real()});
          expect(')');
          if (accept(')')) break;
          expect(',');
        }
      }
    }
    inst.param_end = static_cast<std::uint32_t>(ast_.params.size());
    inst.inst_name = ident("instance name");
    inst.conn_begin = static_cast<std::uint32_t>(ast_.conns.size());
    expect('(');
    if (!accept(')')) {
      while (true) {
        expect('.');
        Connection& conn = ast_.conns.emplace_back();
        conn.pin = ident("pin name");
        expect('(');
        if (!accept(')')) {
          const std::string_view net = ident("net name");
          if (accept('[')) {
            conn.slot = scope.bit_entry(net, parse_index());
            conn.bit_ref = true;
            expect(']');
          } else {
            conn.slot = scope.names.insert(net, hash_name(net));
          }
          expect(')');
        }
        if (accept(')')) break;
        expect(',');
      }
    }
    inst.conn_end = static_cast<std::uint32_t>(ast_.conns.size());
    expect(';');
    ast_.instances.push_back(inst);
  }

  /// A declared wire or port, kept until its module's slots are assigned.
  struct Decl {
    std::string_view name;
    std::uint64_t hash = 0;
    int msb = -1, lsb = -1;  ///< -1/-1 = scalar
    bool is_port = false;
  };

  std::string_view text_;  ///< the whole input
  const char* end_;        ///< of the chunk
  const char* p_;          ///< the cursor
  bool last_chunk_;
  ChunkAst& ast_;
  std::vector<Decl> decls_;  ///< of the module being parsed
};

// -------------------------------------------------------------- elaborator

// Output pins: O*, Q* on primitives.
bool primitive_pin_is_output(std::string_view pin) {
  return !pin.empty() && (pin[0] == 'O' || pin[0] == 'Q');
}

class Elaborator {
 public:
  Elaborator(std::string_view src, std::span<const ChunkAst> chunks)
      : src_(src), chunks_(chunks) {
    std::size_t conn_base = 0;
    for (const ChunkAst& ast : chunks_) {
      for (std::size_t m = 0; m < ast.modules.size(); ++m) {
        by_name_[ast.modules[m].name] = static_cast<int>(modules_.size());
        modules_.push_back({&ast.modules[m], &ast.scopes[m], &ast, conn_base});
      }
      conn_base += ast.conns.size();
    }
    active_.assign(modules_.size(), false);
    parse_directives();
  }

  Design elaborate() {
    const int top = find_top();
    Design design{std::string(module(top).def->name)};
    design.set_die(die_);
    for (std::size_t i = 0; i < macro_defs_.size(); ++i) {
      if (design.library().contains(macro_defs_[i].name)) {
        fail_at(src_, macro_offsets_[i], "duplicate macro '" + macro_defs_[i].name + "'");
      }
      design.library().add(macro_defs_[i]);
    }
    resolve_child_ports();
    const std::optional<DesignSize> size = count_design(design, top);
    if (size) design.reserve(*size);
    std::vector<NetId> nets(module(top).scope->slot_name.size(), kInvalidId);
    active_[static_cast<std::size_t>(top)] = true;
    elaborate_module(design, top, design.root(), nets);
    assert(!size || (design.cell_count() == size->cells && design.net_count() == size->nets &&
                     design.pin_count() <= size->pins));
    design.freeze();
    return design;
  }

 private:
  /// A module definition, its net table and the chunk that holds both.
  struct Module {
    const ModuleDef* def;
    const Scope* scope;
    const ChunkAst* ast;
    std::size_t conn_base;  ///< of the chunk's connections in child_port_
  };

  /// What a module's subtree creates when the parent binds none of its
  /// slots: cells, nets, pins (at most one per connection), and name
  /// bytes. Net names are "path/local", so a node with a non-empty path
  /// of length P spends nets * (P + 1) + rel_bytes; `empty_path_bytes`
  /// is the spend when the path is empty (join_path adds no '/').
  struct SubtreeSize {
    std::uint64_t cells = 0, nets = 0, pins = 0, cell_name_bytes = 0;
    std::uint64_t rel_bytes = 0, empty_path_bytes = 0;
  };

  const Module& module(int m) const { return modules_[static_cast<std::size_t>(m)]; }

  void parse_directives() {
    for (const ChunkAst& ast : chunks_) {
      for (const Directive& d : ast.directives) {
        std::istringstream fields{std::string(d.text)};
        std::string tag;
        fields >> tag;
        if (tag == "HIDAP_MACRO") {
          MacroDef def;
          fields >> def.name >> def.w >> def.h;
          macro_defs_.push_back(std::move(def));
          macro_offsets_.push_back(d.offset);
        } else if (tag == "HIDAP_PIN") {
          std::string macro_name;
          MacroPin pin;
          int is_out = 0;
          fields >> macro_name >> pin.name >> pin.offset.x >> pin.offset.y >> pin.bits >> is_out;
          pin.is_output = is_out != 0;
          for (MacroDef& def : macro_defs_) {
            if (def.name == macro_name) {
              def.pins.push_back(pin);
              break;
            }
          }
        } else if (tag == "HIDAP_DIE") {
          fields >> die_.w >> die_.h;
        }
      }
    }
  }

  int find_top() const {
    std::unordered_set<std::string_view> instantiated;
    for (const ChunkAst& ast : chunks_) {
      for (const Instance& inst : ast.instances) {
        if (inst.kind == DefKind::Other) instantiated.insert(inst.def_name);
      }
    }
    int top = -1;
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      const std::string_view name = modules_[m].def->name;
      if (instantiated.count(name)) continue;
      if (top >= 0) {
        throw VerilogParseError("multiple top modules: " + std::string(module(top).def->name) +
                                    ", " + std::string(name),
                                0);
      }
      top = static_cast<int>(m);
    }
    if (top < 0) throw VerilogParseError("no top module found", 0);
    return top;
  }

  /// Looks up, once per connection of a module instance, the entry its
  /// pin names in the child definition's table; counting and elaboration
  /// both read the result. Instances of unknown modules resolve nothing
  /// (they fail elaboration first).
  void resolve_child_ports() {
    child_port_.clear();
    for (const ChunkAst& ast : chunks_) {
      child_port_.resize(child_port_.size() + ast.conns.size(), -1);
      int* const ports = child_port_.data() + child_port_.size() - ast.conns.size();
      for (const Instance& inst : ast.instances) {
        if (inst.kind != DefKind::Other) continue;
        const auto it = by_name_.find(inst.def_name);
        if (it == by_name_.end()) continue;
        const NameTable& names = module(it->second).scope->names;
        for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
          const Connection& conn = ast.conns[c];
          if (conn.slot >= 0) ports[c] = names.find(conn.pin, hash_name(conn.pin));
        }
      }
    }
  }

  /// The child slot connection `c` of module `mod`'s instance binds: -1 =
  /// none. Vector ports are reported by elaboration.
  int bound_slot(const Module& mod, const Scope& child, std::uint32_t c) const {
    const int e = child_port_[mod.conn_base + c];
    return e >= 0 && !child.names.entry(e).port_vector ? child.names.entry(e).slot : -1;
  }

  // What the design elaborated from `top` will hold, counted bottom-up
  // once per module definition, so a deep tree of repeated instances is
  // counted in time linear in the source. Nothing when the tree cannot be
  // counted (an unknown or recursive module): elaboration reports it.
  // Throws when a cell, net or pin count leaves the int32 id range.
  std::optional<DesignSize> count_design(const Design& design, int top) {
    subtree_.assign(modules_.size(), {});
    count_state_.assign(modules_.size(), CountState::New);
    if (!count(design, top)) return std::nullopt;
    const SubtreeSize& s = subtree_[static_cast<std::size_t>(top)];
    const std::uint64_t path = design.name().size();
    std::uint64_t net_bytes = s.empty_path_bytes;
    if (path > 0 && (__builtin_mul_overflow(s.nets, path + 1, &net_bytes) ||
                     __builtin_add_overflow(net_bytes, s.rel_bytes, &net_bytes))) {
      throw VerilogParseError(kTooLarge, 0);
    }
    return DesignSize{s.cells, s.nets, s.pins, s.cell_name_bytes, net_bytes};
  }

  static constexpr const char* kTooLarge = "design exceeds 2147483647 cells, nets or pins";

  enum class CountState : std::uint8_t { New, Counting, Done };

  // Fills subtree_[m]; false when `m`'s tree cannot be counted.
  bool count(const Design& design, int m) {
    count_state_[static_cast<std::size_t>(m)] = CountState::Counting;
    const Module& mod = module(m);
    const ChunkAst& ast = *mod.ast;
    SubtreeSize s;
    s.nets = mod.scope->slot_name.size();
    s.rel_bytes = mod.scope->slot_name_bytes;
    s.empty_path_bytes = s.nets + s.rel_bytes;
    for (std::uint32_t i = mod.def->inst_begin; i < mod.def->inst_end; ++i) {
      const Instance& inst = ast.instances[i];
      bool wrapped = false;
      const auto add = [&](std::uint64_t& total, std::uint64_t more) {
        wrapped |= __builtin_add_overflow(total, more, &total);
      };
      if (inst.kind != DefKind::Other || design.library().id_of(inst.def_name) != kNoMacroDef) {
        add(s.cells, 1);
        add(s.cell_name_bytes, inst.inst_name.size());
        add(s.pins, inst.conn_end - inst.conn_begin);
      } else {
        const auto it = by_name_.find(inst.def_name);
        if (it == by_name_.end()) return false;
        const int child = it->second;
        const CountState state = count_state_[static_cast<std::size_t>(child)];
        if (state == CountState::Counting) return false;
        if (state == CountState::New && !count(design, child)) return false;
        const Scope& child_scope = *module(child).scope;
        child_bound_.assign(child_scope.slot_name.size(), false);
        std::uint64_t bound = 0, bound_bytes = 0;
        for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
          const int slot = ast.conns[c].slot >= 0 ? bound_slot(mod, child_scope, c) : -1;
          if (slot < 0 || child_bound_[static_cast<std::size_t>(slot)]) continue;
          child_bound_[static_cast<std::size_t>(slot)] = true;
          ++bound;
          bound_bytes += child_scope.slot_name[static_cast<std::size_t>(slot)].size();
        }
        const SubtreeSize& sub = subtree_[static_cast<std::size_t>(child)];
        const std::uint64_t name = inst.inst_name.size();
        const std::uint64_t nets = sub.nets - bound;
        add(s.cells, sub.cells);
        add(s.pins, sub.pins);
        add(s.cell_name_bytes, sub.cell_name_bytes);
        add(s.nets, nets);
        // The child's path is this node's path, '/' and its name (its name
        // alone when this node's path is empty).
        std::uint64_t named = 0;
        wrapped |= __builtin_mul_overflow(nets, name + 1, &named);
        add(s.rel_bytes, named);
        add(s.rel_bytes, sub.rel_bytes - bound_bytes);
        if (name > 0) {
          add(s.empty_path_bytes, named);
          add(s.empty_path_bytes, sub.rel_bytes - bound_bytes);
        } else {
          add(s.empty_path_bytes, sub.empty_path_bytes - bound - bound_bytes);
        }
      }
      constexpr std::uint64_t kMaxIds = std::numeric_limits<std::int32_t>::max();
      if (wrapped || s.cells > kMaxIds || s.nets > kMaxIds || s.pins > kMaxIds) {
        fail_at(src_, inst.offset, kTooLarge);
      }
    }
    subtree_[static_cast<std::size_t>(m)] = s;
    count_state_[static_cast<std::size_t>(m)] = CountState::Done;
    return true;
  }

  // Elaborates module `m` into hierarchy node `hier`. `nets` is indexed
  // by the module's slots; entries the parent bound are already set.
  void elaborate_module(Design& design, int m, HierId hier, std::vector<NetId>& nets) {
    const Module& mod = module(m);
    const ChunkAst& ast = *mod.ast;
    const Scope& scope = *mod.scope;
    const std::string prefix = design.hier_path(hier) + "/";
    const auto create = [&](int slot) {
      return design.add_net(prefix, scope.slot_name[static_cast<std::size_t>(slot)]);
    };
    for (int slot = 0; slot < scope.declared; ++slot) {
      if (nets[static_cast<std::size_t>(slot)] == kInvalidId) {
        nets[static_cast<std::size_t>(slot)] = create(slot);
      }
    }
    const auto resolve = [&](std::uint32_t conn, std::size_t at) -> NetId {
      const int slot = ast.conns[conn].slot;
      NetId& net = nets[static_cast<std::size_t>(slot)];
      if (net != kInvalidId) return net;
      // Implicit scalar net (plain Verilog allows it).
      if (ast.conns[conn].bit_ref) {
        fail_at(src_, at,
                "undeclared vector net " +
                    std::string(scope.slot_name[static_cast<std::size_t>(slot)]));
      }
      return net = create(slot);
    };

    for (std::uint32_t i = mod.def->inst_begin; i < mod.def->inst_end; ++i) {
      const Instance& inst = ast.instances[i];
      if (inst.kind != DefKind::Other) {
        elaborate_primitive(design, ast, inst, hier, resolve);
      } else if (const MacroDefId mid = design.library().id_of(inst.def_name);
                 mid != kNoMacroDef) {
        elaborate_macro(design, ast, inst, hier, mid, resolve);
      } else {
        const auto it = by_name_.find(inst.def_name);
        if (it == by_name_.end()) {
          fail_at(src_, inst.offset, "unknown module '" + std::string(inst.def_name) + "'");
        }
        const int child = it->second;
        if (active_[static_cast<std::size_t>(child)]) {
          fail_at(src_, inst.offset,
                  "module '" + std::string(inst.def_name) + "' instantiates itself");
        }
        const Scope& child_scope = *module(child).scope;
        const HierId child_hier = design.add_hier(hier, std::string(inst.inst_name));
        // Bind the child's port names to parent nets.
        std::vector<NetId> child_nets(child_scope.slot_name.size(), kInvalidId);
        for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
          const Connection& conn = ast.conns[c];
          if (conn.slot < 0) continue;
          const int e = child_port_[mod.conn_base + c];
          const NameTable::Entry* port = e >= 0 ? &child_scope.names.entry(e) : nullptr;
          if (port && port->port_vector) {
            fail_at(src_, inst.offset,
                    "vector port binding unsupported for port '" + std::string(conn.pin) + "'");
          }
          const NetId net = resolve(c, inst.offset);
          // A name the child never declares nor references binds nothing.
          if (port && port->slot >= 0) child_nets[static_cast<std::size_t>(port->slot)] = net;
        }
        active_[static_cast<std::size_t>(child)] = true;
        elaborate_module(design, child, child_hier, child_nets);
        active_[static_cast<std::size_t>(child)] = false;
      }
    }
  }

  template <typename Resolve>
  void elaborate_primitive(Design& design, const ChunkAst& ast, const Instance& inst,
                           HierId hier, Resolve&& resolve) {
    CellKind kind = CellKind::Comb;
    switch (inst.kind) {
      case DefKind::Dff: kind = CellKind::Flop; break;
      case DefKind::Comb: kind = CellKind::Comb; break;
      case DefKind::PinIn: kind = CellKind::PortIn; break;
      case DefKind::PinOut: kind = CellKind::PortOut; break;
      default:
        fail_at(src_, inst.offset, "unknown primitive '" + std::string(inst.def_name) + "'");
    }
    const CellId cell =
        design.add_cell(hier, inst.inst_name, kind, param(ast, inst, "AREA", 0.0));
    if (is_port(kind)) {
      design.set_fixed_pos(cell, Point{param(ast, inst, "X", 0.0), param(ast, inst, "Y", 0.0)});
    }
    for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
      const Connection& conn = ast.conns[c];
      if (conn.slot < 0) continue;
      const NetId net = resolve(c, inst.offset);
      if (primitive_pin_is_output(conn.pin)) {
        drive(design, inst, net, cell);
      } else {
        design.add_sink(net, cell);
      }
    }
  }

  template <typename Resolve>
  void elaborate_macro(Design& design, const ChunkAst& ast, const Instance& inst, HierId hier,
                       MacroDefId mid, Resolve&& resolve) {
    const CellId cell = design.add_cell(hier, inst.inst_name, CellKind::Macro, 0.0, mid);
    const MacroDef& def = design.library().def(mid);
    for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
      const Connection& conn = ast.conns[c];
      if (conn.slot < 0) continue;
      const int pin = def.pin_index(conn.pin);
      if (pin < 0) {
        fail_at(src_, inst.offset,
                "macro '" + def.name + "' has no pin '" + std::string(conn.pin) + "'");
      }
      const MacroPin& mp = def.pins[static_cast<std::size_t>(pin)];
      const NetId net = resolve(c, inst.offset);
      if (mp.is_output) {
        drive(design, inst, net, cell, static_cast<float>(mp.offset.x),
              static_cast<float>(mp.offset.y));
      } else {
        design.add_sink(net, cell, static_cast<float>(mp.offset.x),
                        static_cast<float>(mp.offset.y));
      }
    }
  }

  /// Sets `cell` as the driver of `net`; a second driver is an error at
  /// the instance that adds it.
  void drive(Design& design, const Instance& inst, NetId net, CellId cell, float dx = 0.0f,
             float dy = 0.0f) const {
    if (design.has_driver(net)) {
      fail_at(src_, inst.offset,
              "net '" + std::string(design.net_name(net)) + "' has a second driver");
    }
    design.set_driver(net, cell, dx, dy);
  }

  std::string_view src_;
  std::span<const ChunkAst> chunks_;
  std::vector<Module> modules_;  ///< every chunk's, in source order
  std::unordered_map<std::string_view, int> by_name_;  ///< a later definition wins
  std::vector<int> child_port_;  ///< per connection: the child's port entry, -1 = none
  std::vector<bool> active_;  ///< definitions on the elaboration stack
  std::vector<SubtreeSize> subtree_;  ///< per definition, once counted
  std::vector<CountState> count_state_;
  std::vector<bool> child_bound_;  ///< count()'s scratch: the child slots one instance binds
  std::vector<MacroDef> macro_defs_;
  std::vector<std::size_t> macro_offsets_;
  Die die_;
};

// ------------------------------------------------------------------ chunks

/// Below this many bytes per chunk a split saves about what it costs: the
/// hand-off to a lane, and the cache misses of elaborating an AST another
/// core wrote. On a 4-vCPU host a 266 KB text parsed 10% faster as two
/// chunks and a 133 KB one no faster.
constexpr std::size_t kMinChunkBytes = 128 << 10;

/// Chunk bounds of `text`: 0, then the first line that starts with
/// "module " at or after each of `chunks` - 1 equal byte offsets, then
/// the end. Offsets that reach no new such line add no cut.
std::vector<std::size_t> module_cuts(std::string_view text, int chunks) {
  std::vector<std::size_t> cuts{0};
  for (int i = 1; i < chunks; ++i) {
    const std::size_t at =
        text.size() * static_cast<std::size_t>(i) / static_cast<std::size_t>(chunks);
    if (at == 0) continue;
    const std::size_t line = text.find("\nmodule ", at - 1);
    if (line == std::string_view::npos) break;
    if (line + 1 > cuts.back()) cuts.push_back(line + 1);
  }
  cuts.push_back(text.size());
  return cuts;
}

/// Lexes `text` in up to `chunks` module-aligned chunks on the global
/// pool. A chunk parse sees what a parse of the whole text sees at the
/// same bytes once every chunk before it ended cleanly at its cut, so
/// the chunks' ASTs in order are the whole text's. When any chunk fails,
/// the whole text is parsed as one chunk, which reports the first error.
std::vector<ChunkAst> lex(std::string_view text, int chunks) {
  const auto parse = [text](std::size_t begin, std::size_t end, ChunkAst& ast) {
    obs::Span span("verilog_lex", "netlist");
    span.arg("bytes", static_cast<std::int64_t>(end - begin));
    Parser(text, begin, end, ast).parse_all();
  };
  const std::vector<std::size_t> cuts = module_cuts(text, chunks);
  if (cuts.size() > 2) {
    std::vector<ChunkAst> asts(cuts.size() - 1);
    try {
      parallel_for(asts.size(), [&](std::size_t i) { parse(cuts[i], cuts[i + 1], asts[i]); });
      return asts;
    } catch (const VerilogParseError&) {
      // Parsed again below as one chunk.
    }
  }
  std::vector<ChunkAst> asts(1);
  parse(0, text.size(), asts[0]);
  return asts;
}

}  // namespace

namespace detail {

Design parse_verilog_chunks(std::string_view text, int chunks) {
  HIDAP_FAILPOINT("netlist.verilog_parse");
  obs::Span span("verilog_parse", "netlist");
  span.arg("bytes", static_cast<std::int64_t>(text.size()));
  const std::vector<ChunkAst> asts = lex(text, chunks);
  if (std::all_of(asts.begin(), asts.end(),
                  [](const ChunkAst& ast) { return ast.modules.empty(); })) {
    throw VerilogParseError("empty netlist", 0);
  }
  obs::Span elaborate("verilog_elaborate", "netlist");
  Design design = Elaborator(text, asts).elaborate();
  span.arg("cells", static_cast<std::int64_t>(design.cell_count()));
  return design;
}

}  // namespace detail

Design parse_verilog_string(std::string_view text) {
  const std::size_t lanes = static_cast<std::size_t>(ThreadPool::global().size());
  const std::size_t chunks = std::clamp<std::size_t>(text.size() / kMinChunkBytes, 1, lanes);
  return detail::parse_verilog_chunks(text, static_cast<int>(chunks));
}

Design parse_verilog_file(const std::string& path) {
  HIDAP_FAILPOINT("netlist.verilog_read");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw HidapError(ErrorCode::IoError, "cannot open for read: " + path);
  // A regular file is read in one call into a buffer of its size; a pipe
  // or device has no size and is drained instead.
  std::string text;
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    text.resize(static_cast<std::size_t>(std::filesystem::file_size(path, ec)));
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  if (in.bad()) throw HidapError(ErrorCode::IoError, "read failed: " + path);
  return parse_verilog_string(text);
}

}  // namespace hidap
