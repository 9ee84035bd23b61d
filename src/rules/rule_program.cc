#include "rules/rule_program.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rules/analysis/analyzer.h"
#include "rules/ast_util.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "text/edit_distance.h"
#include "text/keyboard_distance.h"
#include "util/string_util.h"

namespace mergepurge {

namespace rules_internal {

// --- Compiled form -----------------------------------------------------------
//
// Value expressions are typed nodes in one flat array. The rules become
// branch code: an instruction tests one leaf condition and jumps to its
// true or false successor, so and / or / not cost nothing at run time. A
// negative jump target ends the run with result ~target: a rule index, or
// num_rules when no rule fired. To keep a comparison as cheap as
// hand-written code:
//  * the program compares rows, not records. LoadRows copies each record
//    once into a block: the bytes of the fields the program reads, and a
//    64-bit presence mask of each field a bounded distance reads. A
//    string call over one record (nickname, soundex, nysiis, prefix,
//    digits, street_number) is a per-record value: a row slot computed
//    at most once per row, on first use. The window scan loads its
//    records in scan order, so a comparison reads two rows that sit near
//    each other in memory, and the slot and masks of a record are paid
//    once, not once per pair it is in;
//  * `same_name(x, y)` is lowered to `nickname(x) == nickname(y)` and
//    `sounds_like(x, y)` to an equal, non-empty `soundex(x)`, `soundex(y)`,
//    so neither looks anything up per pair;
//  * the leaf tests are a switch inside the dispatch loop
//    (MatchingRuleRows), so the ~16 leaves a comparison visits cost no
//    call;
//  * `similarity(x, y) >= t` computes a distance bounded at the largest
//    one that still meets t (same floating-point boundary), and
//    `damerau(x, y) <= k` one bounded at k; the bounded distance, given
//    the rows' masks, decides most of these without its kernel
//    (text/edit_distance.h);
//  * `not empty(x) and not empty(y)` and `x == y and not empty(x)` are
//    one leaf each;
//  * a test the path already decided is skipped (Thread()): once
//    `r1.ssn == r2.ssn` fails, the five rules that require it next are
//    never entered;
//  * a costly leaf that can still be reached twice is memoized per pair.
// None of this reorders a condition: decisions are those of a plain
// left-to-right evaluation.

// A string operand. A non-negative operand reads a row of the compared
// pair: bit 0 picks the row (0 for r1, 1 for r2), bit 1 the kind (0 a
// field, 1 a slot) and the rest indexes CompiledProgram::fields or
// ::slots. A negative one is the value node ~operand: a literal, or a
// string call that reads both records, computed per pair.
using Operand = int;

constexpr Operand RowOperand(int index, bool slot, int row) {
  return index << 2 | (slot ? 2 : 0) | row;
}

struct ValueNode {
  ExprKind kind = ExprKind::kNumberLiteral;
  ValueType type = ValueType::kNumber;
  FuncId func = FuncId::kEmpty;      // kFuncCall
  ArithOp arith_op = ArithOp::kAdd;  // kArith
  double number = 0.0;               // kNumberLiteral
  std::string text;                  // kStringLiteral
  std::vector<int> args;             // kFuncCall, kArith
  Operand operand = 0;               // string-valued nodes
  int buffer = -1;                   // string call read per pair
};

// A per-record value: `func` applied to the same row's `input` (an
// Operand of row 0), with `n` the prefix length.
struct Slot {
  FuncId func = FuncId::kNickname;
  Operand input = 0;
  double n = 0.0;
};

enum class LeafOp : uint8_t {
  // Tests of the operands themselves.
  kEmpty,           // x is empty
  kBothPresent,     // x and y are non-empty
  kEqualPresent,    // x == y and x is non-empty
  kStringCompare,   // x cmp y
  kPredicate,       // boolean built-in func(x, y)
  // Distances and computed values.
  kSimilarityAtLeast,  // func(x, y) >= thresholds[arg], a typo similarity
  kDistanceAtMost,     // func(x, y) <= arg, damerau or edit_distance
  kValueCompare,       // number or boolean nodes: arg cmp rhs
};

struct Insn {
  LeafOp op = LeafOp::kEmpty;
  CompareOp cmp = CompareOp::kEq;
  FuncId func = FuncId::kEmpty;
  // A bounded distance's operands' presence masks in a row, or -1.
  int16_t mask_x = -1;
  int16_t mask_y = -1;
  Operand x = 0;
  Operand y = 0;
  int arg = 0;
  int rhs = 0;
  int memo = -1;  // per-pair memo slot, or -1
  int on_true = 0;
  int on_false = 0;
};

struct CompiledProgram {
  std::vector<std::string> rule_names;
  // The fields the program reads, copied into every row in this order.
  std::vector<FieldId> fields;
  // Per field: the index of its presence mask in a row, or -1.
  std::vector<int> mask_of;
  int num_masks = 0;
  std::vector<Slot> slots;
  std::vector<ValueNode> nodes;
  std::vector<double> thresholds;
  // MaxDistanceAtSimilarity(longest, thresholds[t]) at
  // [t * kTabledLengths + longest], for longest < kTabledLengths.
  std::vector<int> max_distances;
  std::vector<Insn> code;
  int entry = 0;
  int num_memos = 0;
  int num_buffers = 0;
  PurgePolicy purge_policy;
};

namespace {

bool Holds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Largest distance d with 1 - d / longest >= threshold, or -1 when even 0
// falls short. Evaluates the similarity's own floating-point expression,
// so `d <= MaxDistanceAtSimilarity(...)` and `similarity >= threshold`
// agree on every boundary.
int MaxDistanceAtSimilarity(size_t longest, double threshold) {
  const double length = static_cast<double>(longest);
  int max_distance = static_cast<int>((1.0 - threshold) * length);
  while (1.0 - static_cast<double>(max_distance + 1) / length >= threshold) {
    ++max_distance;
  }
  while (max_distance >= 0 &&
         1.0 - static_cast<double>(max_distance) / length < threshold) {
    --max_distance;
  }
  return max_distance;
}

// Strings up to this length find a similarity leaf's largest distance in
// a table (CompiledProgram::max_distances); it takes floating-point
// divisions to compute.
constexpr size_t kTabledLengths = 64;

// A condition with negation pushed down to the leaves, nested and / or
// flattened and guard pairs fused into one leaf.
struct Cond {
  enum Kind { kAnd, kOr, kLeaf } kind = kLeaf;
  std::vector<Cond> children;  // kAnd, kOr
  Insn leaf;                   // kLeaf, jump targets unset
  bool negated = false;        // kLeaf
  std::string key;             // kLeaf: identity of the leaf's value
};

// Cheaper to recompute than to memoize: a test of row operands (a slot
// is computed once per row, not per pair).
bool Cheap(const Insn& insn) {
  return insn.op <= LeafOp::kPredicate && insn.x >= 0 && insn.y >= 0;
}

class Compiler {
 public:
  Compiler(const Schema& schema, CompiledProgram* program)
      : schema_(schema), program_(program) {}

  Result<Cond> Condition(const BoolExpr& node, bool negate,
                         const std::string& rule_name);

  // Lowers the rules' conditions to the program's branch code.
  void Generate(const std::vector<Cond>& rules);

 private:
  Result<int> Value(const Expr& expr);
  // Adds `node` and returns its index.
  int Push(ValueNode node);
  // The string call func(args): a slot when it reads one row, else a
  // node computed per pair.
  int StringCall(FuncId func, std::vector<int> args);
  Result<Cond> Leaf(const BoolExpr& node, bool negate,
                    const std::string& rule_name);
  Operand OperandOf(int node) const { return program_->nodes[node].operand; }
  int Emit(const Cond& cond, int on_true, int on_false);
  void Thread();

  const Schema& schema_;
  CompiledProgram* program_;
  std::map<std::string, int> key_ids_;
  // Branch code under construction, with each instruction's key id.
  std::vector<Insn> code_;
  std::vector<int> keys_;
  int entry_ = 0;
};

Result<int> Compiler::Value(const Expr& expr) {
  ValueNode node;
  node.kind = expr.kind;
  switch (expr.kind) {
    case ExprKind::kStringLiteral:
      node.type = ValueType::kString;
      node.text = expr.string_value;
      break;
    case ExprKind::kNumberLiteral:
      node.number = expr.number_value;
      break;
    case ExprKind::kFieldRef: {
      Result<FieldId> field = schema_.RequireField(expr.field_name);
      if (!field.ok()) return field.status();
      std::vector<FieldId>& fields = program_->fields;
      auto it = std::find(fields.begin(), fields.end(), *field);
      if (it == fields.end()) it = fields.insert(fields.end(), *field);
      node.type = ValueType::kString;
      node.operand = RowOperand(static_cast<int>(it - fields.begin()),
                                /*slot=*/false, expr.record_index == 1 ? 0 : 1);
      break;
    }
    case ExprKind::kArith:
      node.arith_op = expr.arith_op;
      for (const std::unique_ptr<Expr>& operand : expr.args) {
        Result<int> value = Value(*operand);
        if (!value.ok()) return value.status();
        if (program_->nodes[*value].type != ValueType::kNumber) {
          return Status::ParseError("arithmetic on a non-number");
        }
        node.args.push_back(*value);
      }
      break;
    case ExprKind::kFuncCall: {
      const FuncSignature* signature = FindFunction(expr.func_name);
      if (signature == nullptr) {
        return Status::ParseError("unknown function '" + expr.func_name +
                                  "'");
      }
      if (expr.args.size() != signature->arg_types.size()) {
        return Status::ParseError(StringPrintf(
            "function '%s' takes %zu arguments, got %zu",
            expr.func_name.c_str(), signature->arg_types.size(),
            expr.args.size()));
      }
      node.type = signature->return_type;
      node.func = signature->id;
      for (size_t i = 0; i < expr.args.size(); ++i) {
        Result<int> value = Value(*expr.args[i]);
        if (!value.ok()) return value.status();
        if (program_->nodes[*value].type != signature->arg_types[i]) {
          return Status::ParseError(
              StringPrintf("argument %zu of '%s' has the wrong type", i + 1,
                           expr.func_name.c_str()));
        }
        node.args.push_back(*value);
      }
      if (node.type == ValueType::kString) {
        return StringCall(node.func, std::move(node.args));
      }
      if (node.func == FuncId::kSameName || node.func == FuncId::kSoundsLike) {
        // Equality of per-record values: the arguments become their
        // nickname or Soundex calls.
        const FuncId value = node.func == FuncId::kSameName ? FuncId::kNickname
                                                            : FuncId::kSoundex;
        for (int& arg : node.args) arg = StringCall(value, {arg});
      }
      break;
    }
  }
  return Push(std::move(node));
}

int Compiler::Push(ValueNode node) {
  const int index = static_cast<int>(program_->nodes.size());
  if (node.kind == ExprKind::kStringLiteral) node.operand = ~index;
  program_->nodes.push_back(std::move(node));
  return index;
}

int Compiler::StringCall(FuncId func, std::vector<int> args) {
  ValueNode node;
  node.kind = ExprKind::kFuncCall;
  node.type = ValueType::kString;
  node.func = func;
  node.args = std::move(args);
  const Operand input = program_->nodes[node.args[0]].operand;
  const ValueNode* length =
      node.args.size() > 1 ? &program_->nodes[node.args[1]] : nullptr;
  if (input >= 0 &&
      (length == nullptr || length->kind == ExprKind::kNumberLiteral)) {
    Slot slot;
    slot.func = func;
    slot.input = input & ~1;
    slot.n = length != nullptr ? length->number : 0.0;
    std::vector<Slot>& slots = program_->slots;
    auto it = std::find_if(slots.begin(), slots.end(), [&slot](const Slot& s) {
      return s.func == slot.func && s.input == slot.input && s.n == slot.n;
    });
    if (it == slots.end()) it = slots.insert(slots.end(), slot);
    node.operand = RowOperand(static_cast<int>(it - slots.begin()),
                              /*slot=*/true, input & 1);
  } else {
    node.buffer = program_->num_buffers++;
    node.operand = ~static_cast<int>(program_->nodes.size());
  }
  return Push(std::move(node));
}

Result<Cond> Compiler::Leaf(const BoolExpr& node, bool negate,
                            const std::string& rule_name) {
  Cond cond;
  cond.negated = negate;
  cond.key = CanonicalPrint(node);
  Insn& leaf = cond.leaf;
  Result<int> lhs = Value(*node.lhs);
  if (!lhs.ok()) return lhs.status();
  if (node.kind == BoolKind::kBare) {
    const ValueNode& call = program_->nodes[*lhs];
    if (call.type != ValueType::kBool) {
      return Status::ParseError("rule '" + rule_name +
                                "': bare condition must be boolean-valued");
    }
    // Every boolean value is a built-in call over strings; same_name and
    // sounds_like compare their arguments' per-record values.
    leaf.op = call.func == FuncId::kEmpty      ? LeafOp::kEmpty
              : call.func == FuncId::kSameName ? LeafOp::kStringCompare
              : call.func == FuncId::kSoundsLike ? LeafOp::kEqualPresent
                                                 : LeafOp::kPredicate;
    leaf.func = call.func;
    leaf.x = OperandOf(call.args[0]);
    if (call.args.size() > 1) leaf.y = OperandOf(call.args[1]);
    return cond;
  }

  Result<int> rhs = Value(*node.rhs);
  if (!rhs.ok()) return rhs.status();
  const ValueNode& l = program_->nodes[*lhs];
  const ValueNode& r = program_->nodes[*rhs];
  if (l.type != r.type) {
    return Status::ParseError("rule '" + rule_name +
                              "': comparison between different types");
  }
  if (l.type == ValueType::kBool &&
      !(node.op == CompareOp::kEq || node.op == CompareOp::kNe)) {
    return Status::ParseError("rule '" + rule_name +
                              "': booleans only support == and !=");
  }
  leaf.cmp = node.op;
  leaf.func = l.func;
  if (l.kind == ExprKind::kFuncCall && r.kind == ExprKind::kNumberLiteral) {
    const bool similarity = node.op == CompareOp::kGe && r.number >= 0 &&
                            r.number <= 1 && IsTypoSimilarity(l.func);
    const bool distance =
        node.op == CompareOp::kLe && r.number >= 0 && r.number < 1e9 &&
        (l.func == FuncId::kDamerau || l.func == FuncId::kEditDistance);
    if (similarity || distance) {
      leaf.op = similarity ? LeafOp::kSimilarityAtLeast
                           : LeafOp::kDistanceAtMost;
      leaf.x = OperandOf(l.args[0]);
      leaf.y = OperandOf(l.args[1]);
      if (similarity) {
        leaf.arg = static_cast<int>(program_->thresholds.size());
        program_->thresholds.push_back(r.number);
        for (size_t longest = 0; longest < kTabledLengths; ++longest) {
          program_->max_distances.push_back(
              longest == 0 ? 0 : MaxDistanceAtSimilarity(longest, r.number));
        }
      } else {
        leaf.arg = static_cast<int>(std::floor(r.number));
      }
      return cond;
    }
  }
  if (l.type == ValueType::kString) {
    leaf.op = LeafOp::kStringCompare;
    leaf.x = OperandOf(*lhs);
    leaf.y = OperandOf(*rhs);
  } else {
    leaf.op = LeafOp::kValueCompare;
    leaf.arg = *lhs;
    leaf.rhs = *rhs;
  }
  return cond;
}

Result<Cond> Compiler::Condition(const BoolExpr& node, bool negate,
                                 const std::string& rule_name) {
  if (node.kind == BoolKind::kNot) {
    return Condition(*node.children[0], !negate, rule_name);
  }
  if (node.kind != BoolKind::kAnd && node.kind != BoolKind::kOr) {
    return Leaf(node, negate, rule_name);
  }
  Cond cond;
  const bool is_and = (node.kind == BoolKind::kAnd) != negate;
  cond.kind = is_and ? Cond::kAnd : Cond::kOr;
  for (const std::unique_ptr<BoolExpr>& child : node.children) {
    Result<Cond> lowered = Condition(*child, negate, rule_name);
    if (!lowered.ok()) return lowered.status();
    std::vector<Cond> parts;
    if (lowered->kind == cond.kind) {
      parts = std::move(lowered->children);
    } else {
      parts.push_back(std::move(*lowered));
    }
    for (Cond& part : parts) {
      // Fuse a guard into the leaf before it:
      //   not empty(x) and not empty(y)  ->  both-present(x, y)
      //   empty(x) or empty(y)           ->  not both-present(x, y)
      //   x == y and not empty(x | y)    ->  equal-present(x, y)
      Cond* prev = cond.children.empty() ? nullptr : &cond.children.back();
      if (prev != nullptr && prev->kind == Cond::kLeaf &&
          part.kind == Cond::kLeaf && part.leaf.op == LeafOp::kEmpty &&
          part.negated == is_and) {
        Insn& a = prev->leaf;
        if (a.op == LeafOp::kEmpty && prev->negated == is_and) {
          a.op = LeafOp::kBothPresent;
          a.y = part.leaf.x;
          prev->negated = !is_and;
          prev->key = "present(" + std::min(prev->key, part.key) + "," +
                      std::max(prev->key, part.key) + ")";
          continue;
        }
        if (is_and && !prev->negated && a.op == LeafOp::kStringCompare &&
            a.cmp == CompareOp::kEq &&
            (part.leaf.x == a.x || part.leaf.x == a.y)) {
          a.op = LeafOp::kEqualPresent;
          prev->key = "present" + prev->key;
          continue;
        }
      }
      cond.children.push_back(std::move(part));
    }
  }
  if (cond.children.size() == 1) return std::move(cond.children[0]);
  return cond;
}

// Emits code for `cond` that continues at `on_true` / `on_false` and
// returns its entry, after everything it jumps to.
int Compiler::Emit(const Cond& cond, int on_true, int on_false) {
  if (cond.kind != Cond::kLeaf) {
    int next = 0;
    for (size_t k = cond.children.size(); k-- > 0;) {
      const bool last = k + 1 == cond.children.size();
      next = cond.kind == Cond::kAnd
                 ? Emit(cond.children[k], last ? on_true : next, on_false)
                 : Emit(cond.children[k], on_true, last ? on_false : next);
    }
    return next;
  }
  Insn insn = cond.leaf;
  insn.on_true = cond.negated ? on_false : on_true;
  insn.on_false = cond.negated ? on_true : on_false;
  code_.push_back(insn);
  keys_.push_back(
      key_ids_.emplace(cond.key, static_cast<int>(key_ids_.size()))
          .first->second);
  return static_cast<int>(code_.size()) - 1;
}

// Jump threading; the code's jumps go to lower indices, the result's to
// higher ones. A path to an instruction has decided some leaf values; a
// jump adds its own leaf's value and skips every instruction those values
// decide. Where paths that know different things meet, the instruction is
// copied per knowledge set (capped; past the cap the least likely sets
// merge, keeping what they agree on), so after `r1.first_name ==
// r2.first_name` fails in rule 1, rules 12 and 22 never test it again. A
// test whose two jumps meet is dropped. The likelihoods use per-kind true
// rates measured on generated employee data (bench_snm, 20,000 records,
// w=10): both-present holds on 99.5% of evaluations, empty on under 0.5%,
// every other leaf kind on 3-19% (11% overall). The built-in program
// reaches the cap at 38 of its 192 instructions.
void Compiler::Thread() {
  constexpr size_t kMaxCopies = 16;
  const std::vector<Insn> code = std::exchange(code_, {});
  const std::vector<int> keys = std::exchange(keys_, {});
  const size_t n = code.size();
  const size_t num_keys = key_ids_.size();
  using Known = std::vector<int8_t>;  // per key: -1 undecided, else value

  // Keys pc or an instruction after it tests: only these can matter.
  std::vector<std::vector<bool>> live(n, std::vector<bool>(num_keys));
  for (size_t pc = 0; pc < n; ++pc) {
    for (int target : {code[pc].on_true, code[pc].on_false}) {
      if (target < 0) continue;
      for (size_t k = 0; k < num_keys; ++k) {
        if (live[target][k]) live[pc][k] = true;
      }
    }
    live[pc][keys[pc]] = true;
  }

  struct Arrival {
    int from;    // copy the jump leaves, or -1 for the entry
    bool taken;  // the jump taken when the leaf is true
    double weight;
  };
  using Group = std::pair<Known, std::vector<Arrival>>;
  auto weight = [](const Group& group) {
    double sum = 0.0;
    for (const Arrival& arrival : group.second) sum += arrival.weight;
    return sum;
  };
  std::vector<std::vector<std::pair<Known, Arrival>>> arrivals(n);
  arrivals[entry_].push_back({Known(num_keys, -1), {-1, false, 1.0}});
  std::vector<Insn>& out = code_;
  int entry = 0;
  for (size_t pc = n; pc-- > 0;) {
    // Group the arrivals by what they know that still matters, likeliest
    // first.
    std::vector<Group> groups;
    for (auto& [known, arrival] : arrivals[pc]) {
      for (size_t k = 0; k < num_keys; ++k) {
        if (!live[pc][k]) known[k] = -1;
      }
      auto group =
          std::find_if(groups.begin(), groups.end(),
                       [&known](const Group& g) { return g.first == known; });
      if (group == groups.end()) {
        group = groups.insert(groups.end(), {std::move(known), {}});
      }
      group->second.push_back(arrival);
    }
    arrivals[pc].clear();
    std::stable_sort(groups.begin(), groups.end(),
                     [&weight](const Group& a, const Group& b) {
                       return weight(a) > weight(b);
                     });
    for (; groups.size() > kMaxCopies; groups.pop_back()) {
      Group& into = groups[kMaxCopies - 1];
      for (size_t k = 0; k < num_keys; ++k) {
        if (into.first[k] != groups.back().first[k]) into.first[k] = -1;
      }
      into.second.insert(into.second.end(), groups.back().second.begin(),
                         groups.back().second.end());
    }

    for (const Group& group : groups) {
      const int copy = static_cast<int>(out.size());
      out.push_back(code[pc]);
      keys_.push_back(keys[pc]);
      for (const Arrival& arrival : group.second) {
        if (arrival.from < 0) {
          entry = copy;
        } else {
          (arrival.taken ? out[arrival.from].on_true
                         : out[arrival.from].on_false) = copy;
        }
      }
      const double p_true = code[pc].op == LeafOp::kBothPresent ? 0.995
                            : code[pc].op == LeafOp::kEmpty       ? 0.005
                                                                  : 0.11;
      for (int value = 0; value < 2; ++value) {
        Known known = group.first;
        known[keys[pc]] = static_cast<int8_t>(value);
        int target = value != 0 ? code[pc].on_true : code[pc].on_false;
        while (target >= 0 && known[keys[target]] >= 0) {
          target = known[keys[target]] != 0 ? code[target].on_true
                                            : code[target].on_false;
        }
        (value != 0 ? out[copy].on_true : out[copy].on_false) = target;
        if (target < 0) continue;
        arrivals[target].push_back(
            {std::move(known),
             {copy, value != 0,
              weight(group) * (value != 0 ? p_true : 1.0 - p_true)}});
      }
    }
  }

  auto skip = [&out](int target) {
    while (target >= 0 && out[target].on_true == out[target].on_false) {
      target = out[target].on_true;
    }
    return target;
  };
  for (Insn& insn : out) {
    insn.on_true = skip(insn.on_true);
    insn.on_false = skip(insn.on_false);
  }
  entry_ = skip(entry);
}

void Compiler::Generate(const std::vector<Cond>& rules) {
  entry_ = ~static_cast<int>(rules.size());  // No rule fired.
  for (size_t i = rules.size(); i-- > 0;) {
    entry_ = Emit(rules[i], ~static_cast<int>(i), entry_);
  }
  Thread();

  // A costly leaf that two instructions test gets a memo slot.
  std::vector<int> uses(key_ids_.size(), 0);
  for (int key : keys_) ++uses[key];
  std::vector<int> slot(key_ids_.size(), -1);
  for (size_t pc = 0; pc < code_.size(); ++pc) {
    const int key = keys_[pc];
    if (uses[key] < 2 || Cheap(code_[pc])) continue;
    if (slot[key] < 0) slot[key] = program_->num_memos++;
    code_[pc].memo = slot[key];
  }
  // A field a bounded distance reads gets a presence mask in each row,
  // unless the distance's bound is below 2, where the cascade never
  // reaches its mask step.
  program_->mask_of.assign(program_->fields.size(), -1);
  for (Insn& insn : code_) {
    const bool masked =
        insn.op == LeafOp::kDistanceAtMost
            ? insn.arg >= 2
            : insn.op == LeafOp::kSimilarityAtLeast &&
                  insn.func != FuncId::kKeyboardSimilarity;
    if (!masked) continue;
    // Both operands must be fields: a slot has no mask in the row.
    if (insn.x < 0 || (insn.x & 2) != 0 || insn.y < 0 ||
        (insn.y & 2) != 0 || program_->num_masks + 2 > INT16_MAX) {
      continue;
    }
    for (auto [operand, mask] :
         {std::pair(insn.x, &insn.mask_x), std::pair(insn.y, &insn.mask_y)}) {
      int& index = program_->mask_of[operand >> 2];
      if (index < 0) index = program_->num_masks++;
      *mask = static_cast<int16_t>(index);
    }
  }
  program_->code = std::move(code_);
  program_->entry = entry_;
}

}  // namespace

}  // namespace rules_internal

using rules_internal::CompiledProgram;
using rules_internal::FuncId;
using rules_internal::Insn;
using rules_internal::LeafOp;
using rules_internal::Operand;
using rules_internal::Slot;
using rules_internal::ValueNode;
using rules_internal::ValueType;

Result<RuleProgram> RuleProgram::Compile(std::string_view source,
                                         const Schema& schema,
                                         AnalysisReport* analysis) {
  Result<RuleProgramAst> ast = ParseRuleProgram(source);
  if (!ast.ok()) return ast.status();
  if (analysis != nullptr) {
    AnalyzerOptions options;
    options.allows = ExtractSuppressions(source);
    *analysis = AnalyzeRuleProgram(*ast, options);
  }
  return FromAst(*ast, schema);
}

Result<RuleProgram> RuleProgram::FromAst(const RuleProgramAst& ast,
                                         const Schema& schema) {
  auto program = std::make_shared<CompiledProgram>();
  for (const MergeDirective& directive : ast.merge_directives) {
    Result<FieldId> field = schema.RequireField(directive.field_name);
    if (!field.ok()) return field.status();
    Result<MergeStrategy> strategy =
        MergeStrategyFromName(directive.strategy_name);
    if (!strategy.ok()) return strategy.status();
    program->purge_policy.Set(*field, *strategy);
  }
  rules_internal::Compiler compiler(schema, program.get());
  std::vector<rules_internal::Cond> conditions;
  for (const Rule& rule : ast.rules) {
    Result<rules_internal::Cond> condition =
        compiler.Condition(*rule.condition, /*negate=*/false, rule.name);
    if (!condition.ok()) return condition.status();
    conditions.push_back(std::move(*condition));
    program->rule_names.push_back(rule.name);
  }
  compiler.Generate(conditions);
  return RuleProgram(std::move(program));
}

RuleProgram::RuleProgram(
    std::shared_ptr<const rules_internal::CompiledProgram> program)
    : program_(std::move(program)),
      num_fields_(program_->fields.size()),
      num_masks_(static_cast<size_t>(program_->num_masks)),
      num_slots_(program_->slots.size()),
      memo_(program_->num_memos, 0),
      buffers_(program_->num_buffers),
      fire_counts_(program_->rule_names.size(), 0),
      flushed_fire_counts_(program_->rule_names.size(), 0) {}

RuleProgram::RuleProgram(const RuleProgram& other)
    : RuleProgram(other.program_) {}

RuleProgram::~RuleProgram() = default;

std::unique_ptr<EquationalTheory> RuleProgram::Clone() const {
  return std::make_unique<RuleProgram>(*this);
}

void RuleProgram::FlushMetrics() const {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (size_t i = 0; i < fire_counts_.size(); ++i) {
    const uint64_t delta = fire_counts_[i] - flushed_fire_counts_[i];
    if (delta == 0) continue;
    registry
        .GetCounter(std::string(metric_names::kRulesFiredPrefix) +
                    program_->rule_names[i])
        ->Add(delta);
    flushed_fire_counts_[i] = fire_counts_[i];
  }
  static Counter* const distance_calls =
      registry.GetCounter(metric_names::kRulesDistanceCalls);
  static Counter* const early_exits =
      registry.GetCounter(metric_names::kRulesEarlyExits);
  distance_calls->Add(distance_calls_);
  early_exits->Add(early_exits_);
  distance_calls_ = 0;
  early_exits_ = 0;
}

void RuleProgram::LoadRows(const Record* const* records, size_t n) const {
  const FieldId* fields = program_->fields.data();
  const int* mask_of = program_->mask_of.data();
  const size_t num_fields = num_fields_;
  size_t size = 0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < num_fields; ++f) {
      size += records[r]->field(fields[f]).size();
    }
  }
  if (bytes_.size() < size) bytes_.resize(size);
  field_views_.resize(n * num_fields);
  row_masks_.resize(n * num_masks_);
  char* out = bytes_.data();
  std::string_view* view = field_views_.data();
  uint64_t* masks = row_masks_.data();
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < num_fields; ++f) {
      const std::string_view value = records[r]->field(fields[f]);
      if (!value.empty()) std::memcpy(out, value.data(), value.size());
      *view++ = std::string_view(out, value.size());
      out += value.size();
      if (mask_of[f] >= 0) masks[mask_of[f]] = PresenceMask(value);
    }
    masks += num_masks_;
  }
  if (slot_values_.size() < n * num_slots_) {
    slot_values_.resize(n * num_slots_);
  }
  slot_views_.assign(n * num_slots_, std::string_view());
}

bool RuleProgram::MatchesRows(size_t i, size_t j) const {
  return MatchingRuleRows(i, j) >= 0;
}

// Forced inline: the dispatch loop reads two operands per leaf, and GCC
// otherwise calls this out of line from its ~10 call sites there.
[[gnu::always_inline]] inline std::string_view RuleProgram::Arg(
    Operand operand) const {
  if (operand >= 0 && (operand & 2) == 0) {
    return fields_[operand & 1][operand >> 2];
  }
  return ComputedArg(operand);
}

std::string_view RuleProgram::ComputedArg(Operand operand) const {
  if (operand < 0) return NodeString(~operand);
  return SlotValue(static_cast<size_t>(operand >> 2), rows_[operand & 1]);
}

std::string_view RuleProgram::SlotValue(size_t slot, size_t row) const {
  const size_t cell = row * num_slots_ + slot;
  if (slot_views_[cell].data() != nullptr) return slot_views_[cell];
  // The built-in over the same row's input, a field or an earlier slot.
  const Slot& def = program_->slots[slot];
  const size_t index = static_cast<size_t>(def.input >> 2);
  const std::string_view input = (def.input & 2) != 0
                                     ? SlotValue(index, row)
                                     : field_views_[row * num_fields_ + index];
  std::string& value = slot_values_[cell];
  const std::string_view result = StringBuiltin(def.func, input, def.n, &value);
  if (result.data() != value.data()) value.assign(result);
  slot_views_[cell] = value;
  return value;
}

// The leaf's bounded distance of x and y, given the rows' presence
// masks when the instruction holds both.
inline int RuleProgram::Bounded(const Insn& insn, std::string_view x,
                                std::string_view y, int max_distance,
                                bool transpositions) const {
  if (insn.mask_x < 0 || insn.mask_y < 0) {
    return transpositions ? BoundedDamerauDistance(x, y, max_distance)
                          : BoundedEditDistance(x, y, max_distance);
  }
  const uint64_t mask_x = masks_[insn.x & 1][insn.mask_x];
  const uint64_t mask_y = masks_[insn.y & 1][insn.mask_y];
  return transpositions
             ? BoundedDamerauDistance(x, y, max_distance, mask_x, mask_y)
             : BoundedEditDistance(x, y, max_distance, mask_x, mask_y);
}

int RuleProgram::MatchingRule(const Record& a, const Record& b) const {
  const Record* rows[2] = {&a, &b};
  LoadRows(rows, 2);
  return MatchingRuleRows(0, 1);
}

int RuleProgram::MatchingRuleRows(size_t i, size_t j) const {
  ++comparison_count_;
  ++stamp_;
  rows_[0] = i;
  rows_[1] = j;
  fields_[0] = field_views_.data() + i * num_fields_;
  fields_[1] = field_views_.data() + j * num_fields_;
  masks_[0] = row_masks_.data() + i * num_masks_;
  masks_[1] = row_masks_.data() + j * num_masks_;
  const Insn* code = program_->code.data();
  int pc = program_->entry;
  while (pc >= 0) {
    const Insn& insn = code[pc];
    bool value = false;
    if (insn.memo >= 0 && (memo_[insn.memo] >> 1) == stamp_) {
      value = (memo_[insn.memo] & 1) != 0;
    } else {
      // The leaf tests, in the loop so that a leaf costs no call.
      switch (insn.op) {
        case LeafOp::kEmpty:
          value = Arg(insn.x).empty();
          break;
        case LeafOp::kBothPresent:
          value = !Arg(insn.x).empty() && !Arg(insn.y).empty();
          break;
        case LeafOp::kEqualPresent: {
          const std::string_view x = Arg(insn.x);
          value = !x.empty() && x == Arg(insn.y);
          break;
        }
        case LeafOp::kStringCompare: {
          const std::string_view x = Arg(insn.x);
          const std::string_view y = Arg(insn.y);
          value = insn.cmp == CompareOp::kEq
                      ? x == y
                      : rules_internal::Holds(insn.cmp, x.compare(y));
          break;
        }
        case LeafOp::kPredicate:
          value = PredicateBuiltin(insn.func, Arg(insn.x), Arg(insn.y));
          break;
        case LeafOp::kSimilarityAtLeast:
          value = SimilarityAtLeast(insn);
          break;
        case LeafOp::kDistanceAtMost: {
          value = Bounded(insn, Arg(insn.x), Arg(insn.y), insn.arg,
                          insn.func == FuncId::kDamerau) <= insn.arg;
          break;
        }
        case LeafOp::kValueCompare:
          value = ValueCompare(insn);
          break;
      }
      if (insn.memo >= 0) memo_[insn.memo] = stamp_ << 1 | (value ? 1 : 0);
    }
    pc = value ? insn.on_true : insn.on_false;
  }
  const int rule = ~pc;
  if (rule == static_cast<int>(fire_counts_.size())) return -1;
  ++fire_counts_[rule];
  return rule;
}

bool RuleProgram::Matches(const Record& a, const Record& b) const {
  return MatchingRule(a, b) >= 0;
}

bool RuleProgram::ValueCompare(const Insn& insn) const {
  if (program_->nodes[insn.arg].type == ValueType::kBool) {
    auto value = [this](const ValueNode& call) {
      const std::string_view x = StringValue(call.args[0]);
      const std::string_view y = call.args.size() > 1
                                     ? StringValue(call.args[1])
                                     : std::string_view();
      // same_name and sounds_like read their arguments' nickname and
      // Soundex values (see Compiler::Value).
      if (call.func == FuncId::kSameName) return x == y;
      if (call.func == FuncId::kSoundsLike) return !x.empty() && x == y;
      return PredicateBuiltin(call.func, x, y);
    };
    const bool equal = value(program_->nodes[insn.arg]) ==
                       value(program_->nodes[insn.rhs]);
    return insn.cmp == CompareOp::kEq ? equal : !equal;
  }
  const double lhs = NumberValue(insn.arg);
  const double rhs = NumberValue(insn.rhs);
  return rules_internal::Holds(insn.cmp,
                               lhs < rhs ? -1 : (lhs > rhs ? 1 : 0));
}

bool RuleProgram::SimilarityAtLeast(const Insn& insn) const {
  const std::string_view x = Arg(insn.x);
  const std::string_view y = Arg(insn.y);
  const size_t longest = std::max(x.size(), y.size());
  const double threshold = program_->thresholds[insn.arg];
  if (longest == 0) return 1.0 >= threshold;
  ++distance_calls_;
  if (insn.func == FuncId::kKeyboardSimilarity) {
    // Fractional substitution costs: no bounded form.
    return KeyboardSimilarity(x, y) >= threshold;
  }
  const int max_distance =
      longest < rules_internal::kTabledLengths
          ? program_->max_distances[insn.arg * rules_internal::kTabledLengths +
                                    longest]
          : rules_internal::MaxDistanceAtSimilarity(longest, threshold);
  if (max_distance < 0) {
    // The lengths alone rule the pair out; no distance is computed.
    ++early_exits_;
    return false;
  }
  const int distance = Bounded(insn, x, y, max_distance,
                               insn.func != FuncId::kEditSimilarity);
  if (distance > max_distance) ++early_exits_;
  return distance <= max_distance;
}

std::string_view RuleProgram::StringValue(int node) const {
  return Arg(program_->nodes[node].operand);
}

std::string_view RuleProgram::NodeString(int node) const {
  const ValueNode& value = program_->nodes[node];
  if (value.kind == ExprKind::kStringLiteral) return value.text;
  const double n = value.args.size() > 1 ? NumberValue(value.args[1]) : 0.0;
  return StringBuiltin(value.func, StringValue(value.args[0]), n,
                       &buffers_[value.buffer]);
}

double RuleProgram::NumberValue(int node) const {
  const ValueNode& value = program_->nodes[node];
  if (value.kind == ExprKind::kNumberLiteral) return value.number;
  if (value.kind == ExprKind::kArith) {
    const double lhs = NumberValue(value.args[0]);
    const double rhs = NumberValue(value.args[1]);
    switch (value.arith_op) {
      case ArithOp::kAdd:
        return lhs + rhs;
      case ArithOp::kMul:
        return lhs * rhs;
      case ArithOp::kDiv:
        return rhs == 0.0 ? 0.0 : lhs / rhs;
    }
  }
  // A built-in call: its string arguments in order, then at most one
  // number.
  std::string_view strings[2];
  size_t num_strings = 0;
  double n = 0.0;
  for (int arg : value.args) {
    if (program_->nodes[arg].type == ValueType::kString) {
      strings[num_strings++] = StringValue(arg);
    } else {
      n = NumberValue(arg);
    }
  }
  if (IsTypoSimilarity(value.func) &&
      !(strings[0].empty() && strings[1].empty())) {
    ++distance_calls_;
  }
  return NumberBuiltin(value.func, strings[0], strings[1], n);
}

size_t RuleProgram::num_rules() const { return program_->rule_names.size(); }

const std::string& RuleProgram::rule_name(size_t index) const {
  return program_->rule_names[index];
}

const PurgePolicy& RuleProgram::purge_policy() const {
  return program_->purge_policy;
}

}  // namespace mergepurge
