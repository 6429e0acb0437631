#include "netlist/verilog_parser.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/string_utils.hpp"

namespace hidap {

namespace {

// ------------------------------------------------------------------ lexer

// Character classes of the "C" locale, tested in place.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool is_ident_char(char c) {
  return is_alpha(c) || is_digit(c) || c == '_' || c == '$';
}
constexpr bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+';
}

enum class TokKind { Ident, Number, Punct, End };

struct Token {
  TokKind kind = TokKind::End;
  std::string_view text;  ///< view into the source buffer
  int line = 1;
};

/// A //HIDAP_ comment line: the text after "//" and its line number.
struct Directive {
  std::string_view text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    const Token t = current_;
    advance();
    return t;
  }

  /// Comment lines beginning with //HIDAP_ are surfaced here instead of
  /// being skipped, so the macro header can be read.
  const std::vector<Directive>& directives() const { return directives_; }

 private:
  void advance() {
    skip_space_and_comments();
    const std::size_t start = pos_;
    const std::size_t n = src_.size();
    if (pos_ == n) {
      current_ = {TokKind::End, {}, line_};
      return;
    }
    const char c = src_[pos_++];
    TokKind kind = TokKind::Punct;
    if (is_alpha(c) || c == '_') {
      while (pos_ < n && is_ident_char(src_[pos_])) ++pos_;
      kind = TokKind::Ident;
    } else if (c == '\\') {  // escaped identifier: up to whitespace
      while (pos_ < n && !is_space(src_[pos_])) ++pos_;
      current_ = {TokKind::Ident, src_.substr(start + 1, pos_ - start - 1), line_};
      return;
    } else if (is_digit(c) ||
               // Only a sign followed by a digit or '.' begins a number; a
               // lone '-' or '+' is punctuation.
               ((c == '-' || c == '+') && pos_ < n &&
                (is_digit(src_[pos_]) || src_[pos_] == '.'))) {
      while (pos_ < n && is_number_char(src_[pos_])) ++pos_;
      kind = TokKind::Number;
    }
    current_ = {kind, src_.substr(start, pos_ - start), line_};
  }

  void skip_space_and_comments() {
    const std::size_t n = src_.size();
    while (pos_ < n) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (is_space(c)) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < n && src_[pos_ + 1] == '/') {
        const std::size_t begin = pos_ + 2;
        pos_ = std::min(src_.find('\n', begin), n);
        const std::string_view rest = src_.substr(begin, pos_ - begin);
        if (starts_with(rest, "HIDAP_")) directives_.push_back({rest, line_});
      } else if (c == '/' && pos_ + 1 < n && src_[pos_ + 1] == '*') {
        const std::size_t begin = pos_ + 2;
        const std::size_t close = src_.find("*/", begin);
        pos_ = close == std::string_view::npos ? n : close + 2;
        line_ += static_cast<int>(std::count(src_.begin() + static_cast<std::ptrdiff_t>(begin),
                                             src_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                             '\n'));
      } else {
        return;
      }
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  Token current_;
  int line_ = 1;
  std::vector<Directive> directives_;
};

// --------------------------------------------------------------- AST types
// Names are views into the source buffer, which outlives the parse. An
// instance's parameters and connections are ranges of its module's flat
// `params` / `conns` vectors.

struct NetRef {
  std::string_view name;
  int bit = -1;  ///< -1 = scalar reference
};

struct Connection {
  std::string_view pin;
  NetRef net;
  bool connected = false;  ///< false = unconnected .pin()
};

struct Param {
  std::string_view key;
  double value = 0.0;
};

struct Instance {
  std::string_view def_name;
  std::string_view inst_name;
  std::uint32_t param_begin = 0, param_end = 0;
  std::uint32_t conn_begin = 0, conn_end = 0;
  int line = 0;
};

struct WireDecl {
  std::string_view name;
  int msb = -1, lsb = -1;  ///< -1/-1 = scalar
  bool is_port = false;
};

struct ModuleDef {
  std::string_view name;
  std::vector<WireDecl> wires;
  std::vector<Instance> instances;
  std::vector<Param> params;
  std::vector<Connection> conns;
};

/// Value of an instance parameter (the last assignment wins), `fallback`
/// when absent.
double param(const ModuleDef& mod, const Instance& inst, std::string_view key,
             double fallback) {
  for (std::uint32_t i = inst.param_end; i > inst.param_begin; --i) {
    if (mod.params[i - 1].key == key) return mod.params[i - 1].value;
  }
  return fallback;
}

// ------------------------------------------------------------------ parser

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src), input_bytes_(src.size()) {}

  std::vector<ModuleDef> parse_all() {
    std::vector<ModuleDef> modules;
    while (lex_.peek().kind != TokKind::End) {
      expect_ident("module");
      modules.push_back(parse_module());
    }
    return modules;
  }

  const std::vector<Directive>& directives() const { return lex_.directives(); }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw VerilogParseError(msg, lex_.peek().line);
  }

  Token expect(TokKind kind, const char* what) {
    if (lex_.peek().kind != kind) {
      fail(std::string("expected ") + what + ", got '" + std::string(lex_.peek().text) + "'");
    }
    return lex_.take();
  }

  void expect_punct(char c) {
    const Token t = expect(TokKind::Punct, "punctuation");
    if (t.text[0] != c) {
      throw VerilogParseError(
          std::string("expected '") + c + "', got '" + std::string(t.text) + "'", t.line);
    }
  }

  void expect_ident(const char* kw) {
    const Token t = expect(TokKind::Ident, kw);
    if (t.text != kw) {
      throw VerilogParseError(
          "expected '" + std::string(kw) + "', got '" + std::string(t.text) + "'", t.line);
    }
  }

  bool accept_punct(char c) {
    if (lex_.peek().kind == TokKind::Punct && lex_.peek().text[0] == c) {
      lex_.take();
      return true;
    }
    return false;
  }

  ModuleDef parse_module() {
    ModuleDef mod;
    mod.name = expect(TokKind::Ident, "module name").text;
    // The header port list carries no information the declarations do not.
    if (accept_punct('(')) {
      if (!accept_punct(')')) {
        while (true) {
          expect(TokKind::Ident, "port name");
          if (accept_punct(')')) break;
          expect_punct(',');
        }
      }
    }
    expect_punct(';');
    while (true) {
      const Token& t = lex_.peek();
      if (t.kind == TokKind::End) fail("unexpected end of file inside module");
      if (t.kind != TokKind::Ident) fail("expected statement, got '" + std::string(t.text) + "'");
      if (t.text == "endmodule") {
        lex_.take();
        break;
      }
      if (t.text == "wire" || t.text == "input" || t.text == "output") {
        parse_decl(mod);
      } else {
        parse_instance(mod);
      }
    }
    return mod;
  }

  void parse_decl(ModuleDef& mod) {
    const Token kw = lex_.take();
    WireDecl proto;
    proto.is_port = (kw.text != "wire");
    if (accept_punct('[')) {
      const int line = lex_.peek().line;
      proto.msb = parse_index();
      expect_punct(':');
      proto.lsb = parse_index();
      expect_punct(']');
      // A net per bit: a range wider than the whole input cannot be a
      // real design, only a request to allocate without bound.
      if (std::abs(std::int64_t{proto.msb} - proto.lsb) + 1 >
          static_cast<std::int64_t>(input_bytes_)) {
        throw VerilogParseError("range [" + std::to_string(proto.msb) + ":" +
                                    std::to_string(proto.lsb) + "] is wider than the input",
                                line);
      }
    }
    while (true) {
      WireDecl d = proto;
      d.name = expect(TokKind::Ident, "wire name").text;
      mod.wires.push_back(d);
      if (accept_punct(';')) break;
      expect_punct(',');
    }
  }

  /// A real-valued parameter: the whole token must be a decimal number.
  double parse_real() {
    const Token t = expect(TokKind::Number, "number");
    std::string_view s = t.text;
    if (s.front() == '+') s.remove_prefix(1);  // from_chars takes no '+'
    double value = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || end != s.data() + s.size()) {
      throw VerilogParseError("bad number '" + std::string(t.text) + "'", t.line);
    }
    return value;
  }

  /// A range bound or bit index: decimal digits only, within int32.
  int parse_index() {
    const Token t = expect(TokKind::Number, "number");
    const char* const last = t.text.data() + t.text.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(t.text.data(), last, value);
    if (!is_digit(t.text.front()) || ec != std::errc{} || end != last) {
      throw VerilogParseError("bad bit index '" + std::string(t.text) + "'", t.line);
    }
    return value;
  }

  void parse_instance(ModuleDef& mod) {
    Instance inst;
    inst.line = lex_.peek().line;
    inst.def_name = expect(TokKind::Ident, "instance type").text;
    inst.param_begin = static_cast<std::uint32_t>(mod.params.size());
    if (accept_punct('#')) {
      expect_punct('(');
      if (!accept_punct(')')) {
        while (true) {
          expect_punct('.');
          const std::string_view key = expect(TokKind::Ident, "parameter name").text;
          expect_punct('(');
          mod.params.push_back({key, parse_real()});
          expect_punct(')');
          if (accept_punct(')')) break;
          expect_punct(',');
        }
      }
    }
    inst.param_end = static_cast<std::uint32_t>(mod.params.size());
    inst.inst_name = expect(TokKind::Ident, "instance name").text;
    inst.conn_begin = static_cast<std::uint32_t>(mod.conns.size());
    expect_punct('(');
    if (!accept_punct(')')) {
      while (true) {
        expect_punct('.');
        Connection conn;
        conn.pin = expect(TokKind::Ident, "pin name").text;
        expect_punct('(');
        if (!accept_punct(')')) {
          conn.net.name = expect(TokKind::Ident, "net name").text;
          if (accept_punct('[')) {
            conn.net.bit = parse_index();
            expect_punct(']');
          }
          conn.connected = true;
          expect_punct(')');
        }
        mod.conns.push_back(conn);
        if (accept_punct(')')) break;
        expect_punct(',');
      }
    }
    inst.conn_end = static_cast<std::uint32_t>(mod.conns.size());
    expect_punct(';');
    mod.instances.push_back(inst);
  }

  Lexer lex_;
  std::size_t input_bytes_;
};

// -------------------------------------------------------------- elaborator

bool is_primitive(std::string_view def_name) { return starts_with(def_name, "HIDAP_"); }

// Output pins: O*, Q* on primitives.
bool primitive_pin_is_output(std::string_view pin) {
  return !pin.empty() && (pin[0] == 'O' || pin[0] == 'Q');
}

// Bit-blasted local net name.
std::string bit_name(std::string_view base, int bit) {
  std::string name(base);
  if (bit >= 0) name += "[" + std::to_string(bit) + "]";
  return name;
}

/// Open-addressing map from a name (a view into the source buffer or a
/// Scope's bit-name storage) to a Scope entry. Scope tables are the
/// elaborator's hot path: one insert per declared wire and one lookup per
/// connection, so no node allocation per name.
class NameTable {
 public:
  struct Entry {
    int slot = -1;             ///< net slot; -1 = name has none (yet)
    bool port_vector = false;  ///< first port declaration is a vector
    bool port = false;         ///< declared as a port
  };

  const Entry* find(std::string_view key) const {
    if (cells_.empty()) return nullptr;
    const Cell& c = cells_[probe(key, hash_bytes(key))];
    return c.used ? &c.entry : nullptr;
  }

  /// Sizes the table for `n` names without regrowth.
  void reserve(std::size_t n) {
    if (2 * n > cells_.size()) grow(std::bit_ceil(2 * n));
  }

  /// Entry of `key`, default-constructed on first use.
  Entry& operator[](std::string_view key) {
    if (2 * (size_ + 1) > cells_.size()) grow(std::max<std::size_t>(64, 2 * cells_.size()));
    const std::uint64_t h = hash_bytes(key);
    Cell& c = cells_[probe(key, h)];
    if (!c.used) {
      c = Cell{key, h, {}, true};
      ++size_;
    }
    return c.entry;
  }

 private:
  struct Cell {
    std::string_view key;
    std::uint64_t hash = 0;
    Entry entry;
    bool used = false;
  };

  std::size_t probe(std::string_view key, std::uint64_t h) const {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (cells_[i].used && (cells_[i].hash != h || cells_[i].key != key)) i = (i + 1) & mask;
    return i;
  }

  void grow(std::size_t capacity) {
    std::vector<Cell> old(capacity);
    old.swap(cells_);
    for (const Cell& c : old) {
      if (c.used) cells_[probe(c.key, c.hash)] = c;
    }
  }

  std::vector<Cell> cells_;  ///< power-of-two size, at most half full
  std::size_t size_ = 0;
};

/// Per-definition net table, built once per ModuleDef: every local net
/// name (scalar wire, port, vector bit, or implicitly declared net) gets
/// a slot, and an instance of the module binds its nets in a
/// std::vector<NetId> indexed by slot.
struct Scope {
  bool built = false;
  NameTable names;
  std::vector<std::string_view> slot_name;  ///< local (bit-blasted) name
  /// Slots [0, declared) are declared wires and ports, in declaration
  /// order; each instance creates them on entry unless bound by the parent.
  /// Later slots are nets first named by a connection, created on first use.
  int declared = 0;
  std::vector<int> conn_slot;  ///< per ModuleDef::conns entry; -1 = unconnected
  std::deque<std::string> bit_names;  ///< storage behind vector-bit slot names
};

class Elaborator {
 public:
  Elaborator(const std::vector<ModuleDef>& modules, const std::vector<Directive>& directives)
      : modules_(modules), scopes_(modules.size()), active_(modules.size(), false) {
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      by_name_[modules_[m].name] = static_cast<int>(m);
    }
    parse_directives(directives);
  }

  Design elaborate() {
    const int top = find_top();
    Design design{std::string(modules_[static_cast<std::size_t>(top)].name)};
    design.set_die(die_);
    for (std::size_t i = 0; i < macro_defs_.size(); ++i) {
      if (design.library().contains(macro_defs_[i].name)) {
        throw VerilogParseError("duplicate macro '" + macro_defs_[i].name + "'",
                                macro_lines_[i]);
      }
      design.library().add(macro_defs_[i]);
    }
    std::vector<NetId> nets(scope_of(top).slot_name.size(), kInvalidId);
    active_[static_cast<std::size_t>(top)] = true;
    elaborate_module(design, top, design.root(), nets);
    return design;
  }

 private:
  void parse_directives(const std::vector<Directive>& directives) {
    for (const Directive& d : directives) {
      std::istringstream fields{std::string(d.text)};
      std::string tag;
      fields >> tag;
      if (tag == "HIDAP_MACRO") {
        MacroDef def;
        fields >> def.name >> def.w >> def.h;
        macro_defs_.push_back(std::move(def));
        macro_lines_.push_back(d.line);
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

  int find_top() const {
    std::unordered_set<std::string_view> instantiated;
    for (const ModuleDef& m : modules_) {
      for (const Instance& inst : m.instances) {
        if (!is_primitive(inst.def_name)) instantiated.insert(inst.def_name);
      }
    }
    int top = -1;
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      if (instantiated.count(modules_[m].name)) continue;
      if (top >= 0) {
        throw VerilogParseError("multiple top modules: " +
                                    std::string(modules_[static_cast<std::size_t>(top)].name) +
                                    ", " + std::string(modules_[m].name),
                                0);
      }
      top = static_cast<int>(m);
    }
    if (top < 0) throw VerilogParseError("no top module found", 0);
    return top;
  }

  const Scope& scope_of(int m) {
    Scope& s = scopes_[static_cast<std::size_t>(m)];
    if (s.built) return s;
    s.built = true;
    const ModuleDef& mod = modules_[static_cast<std::size_t>(m)];
    s.names.reserve(mod.wires.size());
    const auto slot = [&s](std::string_view name) {
      NameTable::Entry& e = s.names[name];
      if (e.slot < 0) {
        e.slot = static_cast<int>(s.slot_name.size());
        s.slot_name.push_back(name);
      }
      return e.slot;
    };
    const auto bit_slot = [&s, &slot](std::string_view base, int bit) {
      const std::string name = bit_name(base, bit);
      const NameTable::Entry* e = s.names.find(name);
      return e && e->slot >= 0 ? e->slot : slot(s.bit_names.emplace_back(name));
    };
    for (const WireDecl& w : mod.wires) {
      if (w.is_port) {
        NameTable::Entry& e = s.names[w.name];
        if (!e.port) e.port_vector = w.msb >= 0;
        e.port = true;
      }
      if (w.msb < 0) {
        slot(w.name);
        continue;
      }
      const int hi = std::max(w.msb, w.lsb);
      for (std::int64_t b = std::min(w.msb, w.lsb); b <= hi; ++b) {
        bit_slot(w.name, static_cast<int>(b));
      }
    }
    s.declared = static_cast<int>(s.slot_name.size());
    s.conn_slot.assign(mod.conns.size(), -1);
    for (std::size_t i = 0; i < mod.conns.size(); ++i) {
      const NetRef& ref = mod.conns[i].net;
      if (!mod.conns[i].connected) continue;
      s.conn_slot[i] = ref.bit < 0 ? slot(ref.name) : bit_slot(ref.name, ref.bit);
    }
    return s;
  }

  // Elaborates module `m` into hierarchy node `hier`. `nets` is indexed
  // by the module's slots; entries the parent bound are already set.
  void elaborate_module(Design& design, int m, HierId hier, std::vector<NetId>& nets) {
    const ModuleDef& mod = modules_[static_cast<std::size_t>(m)];
    const Scope& scope = scope_of(m);
    const std::string prefix = design.hier_path(hier) + "/";
    const auto create = [&](int slot) {
      const std::string_view local = scope.slot_name[static_cast<std::size_t>(slot)];
      std::string name;
      name.reserve(prefix.size() + local.size());
      name.append(prefix).append(local);
      return design.add_net(std::move(name));
    };
    for (int slot = 0; slot < scope.declared; ++slot) {
      if (nets[static_cast<std::size_t>(slot)] == kInvalidId) {
        nets[static_cast<std::size_t>(slot)] = create(slot);
      }
    }
    const auto resolve = [&](std::uint32_t conn, int line) -> NetId {
      const int slot = scope.conn_slot[conn];
      NetId& net = nets[static_cast<std::size_t>(slot)];
      if (net != kInvalidId) return net;
      // Implicit scalar net (plain Verilog allows it).
      const NetRef& ref = mod.conns[conn].net;
      if (ref.bit >= 0) {
        throw VerilogParseError("undeclared vector net " + bit_name(ref.name, ref.bit), line);
      }
      return net = create(slot);
    };

    for (const Instance& inst : mod.instances) {
      if (is_primitive(inst.def_name)) {
        elaborate_primitive(design, mod, inst, hier, resolve);
      } else if (const MacroDefId mid = design.library().id_of(inst.def_name);
                 mid != kNoMacroDef) {
        elaborate_macro(design, mod, inst, hier, mid, resolve);
      } else {
        const auto it = by_name_.find(inst.def_name);
        if (it == by_name_.end()) {
          throw VerilogParseError("unknown module '" + std::string(inst.def_name) + "'",
                                  inst.line);
        }
        const int child = it->second;
        if (active_[static_cast<std::size_t>(child)]) {
          throw VerilogParseError(
              "module '" + std::string(inst.def_name) + "' instantiates itself", inst.line);
        }
        const Scope& child_scope = scope_of(child);
        const HierId child_hier = design.add_hier(hier, std::string(inst.inst_name));
        // Bind the child's port names to parent nets.
        std::vector<NetId> child_nets(child_scope.slot_name.size(), kInvalidId);
        for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
          const Connection& conn = mod.conns[c];
          if (!conn.connected) continue;
          const NameTable::Entry* port = child_scope.names.find(conn.pin);
          if (port && port->port_vector) {
            throw VerilogParseError(
                "vector port binding unsupported for port '" + std::string(conn.pin) + "'",
                inst.line);
          }
          const NetId net = resolve(c, inst.line);
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
  void elaborate_primitive(Design& design, const ModuleDef& mod, const Instance& inst,
                           HierId hier, Resolve&& resolve) {
    CellKind kind;
    if (inst.def_name == "HIDAP_DFF") {
      kind = CellKind::Flop;
    } else if (inst.def_name == "HIDAP_COMB") {
      kind = CellKind::Comb;
    } else if (inst.def_name == "HIDAP_PIN_IN") {
      kind = CellKind::PortIn;
    } else if (inst.def_name == "HIDAP_PIN_OUT") {
      kind = CellKind::PortOut;
    } else {
      throw VerilogParseError("unknown primitive '" + std::string(inst.def_name) + "'",
                              inst.line);
    }
    const CellId cell = design.add_cell(hier, std::string(inst.inst_name), kind,
                                        param(mod, inst, "AREA", 0.0));
    if (is_port(kind)) {
      design.cell_mutable(cell).fixed_pos =
          Point{param(mod, inst, "X", 0.0), param(mod, inst, "Y", 0.0)};
    }
    for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
      const Connection& conn = mod.conns[c];
      if (!conn.connected) continue;
      const NetId net = resolve(c, inst.line);
      if (primitive_pin_is_output(conn.pin)) {
        design.set_driver(net, cell);
      } else {
        design.add_sink(net, cell);
      }
    }
  }

  template <typename Resolve>
  void elaborate_macro(Design& design, const ModuleDef& mod, const Instance& inst,
                       HierId hier, MacroDefId mid, Resolve&& resolve) {
    const CellId cell =
        design.add_cell(hier, std::string(inst.inst_name), CellKind::Macro, 0.0, mid);
    const MacroDef& def = design.library().def(mid);
    for (std::uint32_t c = inst.conn_begin; c < inst.conn_end; ++c) {
      const Connection& conn = mod.conns[c];
      if (!conn.connected) continue;
      const int pin = def.pin_index(conn.pin);
      if (pin < 0) {
        throw VerilogParseError(
            "macro '" + def.name + "' has no pin '" + std::string(conn.pin) + "'", inst.line);
      }
      const MacroPin& mp = def.pins[static_cast<std::size_t>(pin)];
      const NetId net = resolve(c, inst.line);
      if (mp.is_output) {
        design.set_driver(net, cell, static_cast<float>(mp.offset.x),
                          static_cast<float>(mp.offset.y));
      } else {
        design.add_sink(net, cell, static_cast<float>(mp.offset.x),
                        static_cast<float>(mp.offset.y));
      }
    }
  }

  const std::vector<ModuleDef>& modules_;
  std::unordered_map<std::string_view, int> by_name_;  ///< a later definition wins
  std::vector<Scope> scopes_;
  std::vector<bool> active_;  ///< definitions on the elaboration stack
  std::vector<MacroDef> macro_defs_;
  std::vector<int> macro_lines_;
  Die die_;
};

}  // namespace

Design parse_verilog_string(std::string_view text) {
  HIDAP_FAILPOINT("netlist.verilog_parse");
  obs::Span span("verilog_parse", "netlist");
  span.arg("bytes", static_cast<std::int64_t>(text.size()));
  Parser parser(text);
  const std::vector<ModuleDef> modules = parser.parse_all();
  if (modules.empty()) throw VerilogParseError("empty netlist", 0);
  Design design = Elaborator(modules, parser.directives()).elaborate();
  span.arg("cells", static_cast<std::int64_t>(design.cell_count()));
  return design;
}

Design parse_verilog_file(const std::string& path) {
  HIDAP_FAILPOINT("netlist.verilog_read");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw HidapError(ErrorCode::IoError, "cannot open for read: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) throw HidapError(ErrorCode::IoError, "read failed: " + path);
  return parse_verilog_string(text.view());
}

}  // namespace hidap