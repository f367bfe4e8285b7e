/**
 * @file
 * bclint: the repository's custom static-analysis pass.
 *
 * A standalone token/line-level linter (no libclang) enforcing project
 * rules that generic tools cannot know about — determinism of the
 * simulation, Event ownership, Border Control address hygiene, and the
 * repo's header conventions. Run as a ctest ("ctest -R bclint", label
 * "lint"); it scans src/, tests/, bench/, tools/, and examples/ and
 * exits nonzero on any finding.
 *
 * Rules (see --list-rules):
 *   nondeterminism      no rand()/random_device/wall-clock in sim code
 *   ptr-keyed-container no unordered_{map,set} keyed by pointers
 *   raw-event-new       no `new FooEvent` outside the EventQueue
 *   missing-override    virtual overrides in derived classes spell
 *                       `override`
 *   catch-all           no `catch (...)` swallowing
 *   include-guard       headers carry the canonical BCTRL_..._HH guard
 *   namespace-bctrl     src/ code lives in namespace bctrl
 *   addr-arith          no raw page/block shift-mask arithmetic outside
 *                       the mem/addr.hh helpers
 *   raw-packet-alloc    no direct Packet minting outside the pool
 *                       factory; go through allocPacket()
 *   raw-console-io      no printf/std::cout/std::cerr in src/; route
 *                       through sim/logging.hh (or take an ostream)
 *   spec-state-leak     fill/insert mutations of shared lookup state
 *                       in the request-path components (gpu/, vm/,
 *                       bc/) must sit next to a spec token showing the
 *                       speculative path was considered
 *
 * Suppression: `// bclint:allow(rule-id[, rule-id...])` on the finding
 * line or the line above it; `// bclint:allow-file(rule-id)` anywhere
 * in a file suppresses the rule for the whole file.
 *
 * Self-test: `bclint --self-test DIR` scans fixture files named
 * `<rule-id>__fires.*` (must produce >= 1 finding of exactly that rule
 * and nothing else) and `<rule-id>__suppressed.*` (must produce no
 * findings at all), proving both that each rule fires and that its
 * suppressions work.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Diagnostic {
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

struct SourceFile {
    std::string displayPath; ///< path printed in diagnostics
    std::string relPath;     ///< '/'-separated path used for rule scoping
    bool selfTest = false;   ///< fixture mode: apply every rule
    std::vector<std::string> raw;     ///< raw lines (1-based via index+1)
    std::vector<std::string> code;    ///< comment/literal-blanked lines
    std::vector<std::string> comment; ///< comment text per line
    std::set<std::string> fileAllows;
    std::map<int, std::set<std::string>> lineAllows;
};

struct RuleInfo {
    const char *id;
    const char *summary;
};

const RuleInfo kRules[] = {
    {"nondeterminism",
     "no rand()/std::random_device/wall-clock time in simulation code; "
     "use bctrl::Random and the event queue's curTick()"},
    {"ptr-keyed-container",
     "no std::unordered_map/unordered_set keyed by pointers: iteration "
     "order would depend on allocation addresses"},
    {"raw-event-new",
     "no raw new/delete of Event subclasses outside the EventQueue; "
     "use scheduleLambda() or own the event by value"},
    {"missing-override",
     "virtual member functions of derived classes must be spelled "
     "`override` (new pure-virtual interface points are exempt)"},
    {"catch-all", "no `catch (...)`: it swallows the panic paths"},
    {"include-guard",
     "headers open with the canonical #ifndef/#define BCTRL_<PATH>_HH "
     "guard pair"},
    {"namespace-bctrl", "src/ code must live in namespace bctrl"},
    {"addr-arith",
     "no raw page/block shift or mask arithmetic; use the addr.hh "
     "helpers (pageNumber, pageBase, blockAlign, ...)"},
    {"mutable-global-state",
     "no mutable namespace-scope variables in src/: concurrent "
     "Systems share one process; keep state per-System, const, or "
     "std::atomic"},
    {"raw-packet-alloc",
     "no make_shared<Packet>/new Packet/Packet::make outside the "
     "packet pool factory; mint through allocPacket() so steady-state "
     "traffic reuses pooled packets"},
    {"raw-console-io",
     "no printf-family or std::cout/cerr/clog in src/: the library "
     "runs under parallel sweeps and tests; use sim/logging.hh or "
     "write to a caller-supplied std::ostream"},
    {"unseeded-random",
     "no std::<random> engines (mt19937, minstd_rand, ...) in src/: "
     "all randomness flows through the explicitly seeded "
     "bctrl::Random so chaos and sweep runs replay exactly"},
    {"spec-state-leak",
     "a .fill()/.insert() mutation of shared lookup state in src/gpu, "
     "src/vm or src/bc with no spec/speculative token nearby: decide "
     "(and document) what a squashed wrong-path request may leave "
     "behind (vm/spec_policy.hh) before adding a fill site"},
};

bool
knownRule(const std::string &id)
{
    for (const RuleInfo &r : kRules)
        if (id == r.id)
            return true;
    return false;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/**
 * Split a file into blanked-code and comment-text views.
 *
 * String and character literals are replaced by spaces in the code view
 * so rule patterns never match inside them; comments are moved to the
 * comment view (where the suppression syntax is parsed). Line structure
 * is preserved exactly. Escape sequences are honoured; raw string
 * literals without embedded quotes are handled by the same state
 * machine.
 */
void
splitViews(SourceFile &sf)
{
    enum class State { code, lineComment, blockComment, str, chr };
    State st = State::code;

    sf.code.reserve(sf.raw.size());
    sf.comment.reserve(sf.raw.size());
    for (const std::string &line : sf.raw) {
        std::string code(line.size(), ' ');
        std::string comment(line.size(), ' ');
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            const char n = i + 1 < line.size() ? line[i + 1] : '\0';
            switch (st) {
              case State::code:
                if (c == '/' && n == '/') {
                    st = State::lineComment;
                    ++i;
                } else if (c == '/' && n == '*') {
                    st = State::blockComment;
                    ++i;
                } else if (c == '"') {
                    st = State::str;
                } else if (c == '\'') {
                    st = State::chr;
                } else {
                    code[i] = c;
                }
                break;
              case State::lineComment:
                comment[i] = c;
                break;
              case State::blockComment:
                if (c == '*' && n == '/') {
                    st = State::code;
                    ++i;
                } else {
                    comment[i] = c;
                }
                break;
              case State::str:
                if (c == '\\') {
                    ++i;
                } else if (c == '"') {
                    st = State::code;
                }
                break;
              case State::chr:
                if (c == '\\') {
                    ++i;
                } else if (c == '\'') {
                    st = State::code;
                }
                break;
            }
        }
        if (st == State::lineComment)
            st = State::code; // line comments end at the newline
        if (st == State::str || st == State::chr)
            st = State::code; // unterminated literal: resynchronize
        sf.code.push_back(std::move(code));
        sf.comment.push_back(std::move(comment));
    }
}

void
parseSuppressions(SourceFile &sf)
{
    static const std::regex allowRe(
        R"(bclint:allow(-file)?\(([A-Za-z0-9_, -]+)\))");
    for (std::size_t i = 0; i < sf.comment.size(); ++i) {
        std::smatch m;
        std::string text = sf.comment[i];
        while (std::regex_search(text, m, allowRe)) {
            const bool wholeFile = m[1].matched;
            std::stringstream rules(m[2].str());
            std::string rule;
            while (std::getline(rules, rule, ',')) {
                rule.erase(0, rule.find_first_not_of(" \t"));
                rule.erase(rule.find_last_not_of(" \t") + 1);
                if (rule.empty())
                    continue;
                if (wholeFile)
                    sf.fileAllows.insert(rule);
                else
                    sf.lineAllows[static_cast<int>(i) + 1].insert(rule);
            }
            text = m.suffix();
        }
    }
}

bool
suppressed(const SourceFile &sf, int line, const std::string &rule)
{
    if (sf.fileAllows.count(rule))
        return true;
    for (int l : {line, line - 1}) {
        auto it = sf.lineAllows.find(l);
        if (it != sf.lineAllows.end() && it->second.count(rule))
            return true;
    }
    return false;
}

void
report(const SourceFile &sf, int line, const std::string &rule,
       const std::string &message, std::vector<Diagnostic> &out)
{
    if (suppressed(sf, line, rule))
        return;
    out.push_back(Diagnostic{sf.displayPath, line, rule, message});
}

// ---------------------------------------------------------------------
// Pattern rules: a regex matched per code line, scoped by path.

struct PatternRule {
    const char *rule;
    std::regex re;
    const char *message;
};

const std::vector<PatternRule> &
patternRules()
{
    static const std::vector<PatternRule> rules = [] {
        std::vector<PatternRule> r;
        auto add = [&r](const char *rule, const char *re,
                        const char *msg) {
            r.push_back(PatternRule{rule, std::regex(re), msg});
        };
        add("nondeterminism", R"(\b(rand|srand)\s*\()",
            "libc PRNG call; use bctrl::Random so traces are "
            "reproducible");
        add("nondeterminism", R"(\brandom_device\b)",
            "std::random_device is nondeterministic; seed "
            "bctrl::Random explicitly");
        add("nondeterminism",
            R"(\b(system_clock|steady_clock|high_resolution_clock)\b)",
            "wall-clock time in simulation code; use curTick()");
        add("nondeterminism", R"(\bgettimeofday\b|\bclock\s*\(\s*\))",
            "wall-clock time in simulation code; use curTick()");
        add("nondeterminism", R"(\btime\s*\(\s*(NULL|nullptr|0|&))",
            "time() in simulation code; use curTick()");
        add("ptr-keyed-container", R"(\bunordered_(map|set)\s*<[^,>]*\*)",
            "pointer-keyed unordered container: iteration order "
            "depends on allocation; key by a stable id or use an "
            "ordered container");
        add("raw-event-new", R"(\bnew\s+[A-Za-z_]\w*Event\b)",
            "raw new of an Event subclass outside EventQueue; use "
            "scheduleLambda() or a value-owned event");
        add("catch-all", R"(\bcatch\s*\(\s*\.\.\.\s*\))",
            "catch (...) swallows panic/fatal paths; catch a concrete "
            "type or let it propagate");
        add("addr-arith",
            R"((<<|>>)\s*(pageShift|blockShift|largePageShift)\b)",
            "raw shift by a page/block constant; use pageNumber/"
            "pageBase/blockNumber/blockBase from mem/addr.hh");
        add("addr-arith", R"(&\s*~?\s*(pageMask|blockMask)\b)",
            "raw mask by a page/block constant; use pageAlign/"
            "pageOffset/blockAlign from mem/addr.hh");
        add("raw-packet-alloc",
            R"(\bmake_shared\s*<\s*Packet\s*>|\bnew\s+Packet\b|\bPacket::make\s*\()",
            "direct Packet minting bypasses the pool; use "
            "allocPacket(pool, ...) (or PacketPool::make) so "
            "steady-state traffic stays allocation-free");
        add("raw-console-io",
            R"(\b(printf|fprintf|vprintf|vfprintf|puts|fputs|putchar)\s*\(|\bstd\s*::\s*(cout|cerr|clog)\b)",
            "raw console I/O in library code; use warn()/inform()/"
            "panic() from sim/logging.hh, or take an std::ostream "
            "parameter so callers choose the sink");
        add("unseeded-random",
            R"(\b(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux(24|48)(_base)?|knuth_b)\b)",
            "std::<random> engine in simulation code; draw from the "
            "seeded bctrl::Random (sim/random.hh) so every run is "
            "replayable from its seed");
        return r;
    }();
    return rules;
}

bool
ruleAppliesToPath(const SourceFile &sf, const std::string &rule)
{
    if (sf.selfTest)
        return true;
    if (rule == "raw-event-new") {
        // The queue implementation is the one legitimate owner of
        // heap-allocated lambda events.
        return sf.relPath != "src/sim/event_queue.cc" &&
               sf.relPath != "src/sim/event_queue.hh";
    }
    if (rule == "addr-arith")
        return sf.relPath != "src/mem/addr.hh";
    if (rule == "raw-packet-alloc") {
        // The pool and its heap fallback are the only legitimate
        // minters; tests/tools construct packets freely (no pool).
        return startsWith(sf.relPath, "src/") &&
               sf.relPath != "src/mem/packet.hh" &&
               sf.relPath != "src/mem/packet.cc" &&
               sf.relPath != "src/mem/packet_pool.hh" &&
               sf.relPath != "src/mem/packet_pool.cc";
    }
    if (rule == "namespace-bctrl")
        return startsWith(sf.relPath, "src/");
    if (rule == "raw-console-io") {
        // Library code must not write to the process console: many
        // Systems share one process under the sweep engine. The logging
        // layer and the contract-failure reporter are the sanctioned
        // sinks; drivers/tests/benches own their stdout.
        return startsWith(sf.relPath, "src/") &&
               sf.relPath != "src/sim/logging.hh" &&
               sf.relPath != "src/sim/logging.cc" &&
               sf.relPath != "src/sim/contracts.cc";
    }
    if (rule == "mutable-global-state") {
        // The simulation library must tolerate concurrent Systems
        // (sweep engine); drivers and tests own their process.
        return startsWith(sf.relPath, "src/");
    }
    if (rule == "unseeded-random") {
        // The one sanctioned generator lives in sim/random.hh; tools
        // and tests may use std engines for host-side shuffling.
        return startsWith(sf.relPath, "src/") &&
               sf.relPath != "src/sim/random.hh" &&
               sf.relPath != "src/sim/random.cc";
    }
    if (rule == "spec-state-leak") {
        // The request-path components a wrong-path crossing traverses;
        // everything else never sees a speculative packet.
        return startsWith(sf.relPath, "src/gpu/") ||
               startsWith(sf.relPath, "src/vm/") ||
               startsWith(sf.relPath, "src/bc/");
    }
    return true;
}

void
runPatternRules(const SourceFile &sf, std::vector<Diagnostic> &out)
{
    for (const PatternRule &pr : patternRules()) {
        if (!ruleAppliesToPath(sf, pr.rule))
            continue;
        for (std::size_t i = 0; i < sf.code.size(); ++i) {
            if (std::regex_search(sf.code[i], pr.re))
                report(sf, static_cast<int>(i) + 1, pr.rule, pr.message,
                       out);
        }
    }
}

// ---------------------------------------------------------------------
// include-guard: headers open with #ifndef/#define of the canonical
// guard derived from the path (src/ prefix stripped).

std::string
expectedGuard(const std::string &relPath)
{
    std::string p = relPath;
    if (startsWith(p, "src/"))
        p = p.substr(4);
    std::string guard = "BCTRL_";
    for (char c : p) {
        guard += std::isalnum(static_cast<unsigned char>(c))
                     ? static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)))
                     : '_';
    }
    return guard;
}

void
checkIncludeGuard(const SourceFile &sf, std::vector<Diagnostic> &out)
{
    if (!endsWith(sf.relPath, ".hh") && !endsWith(sf.relPath, ".h"))
        return;

    const std::string guard = expectedGuard(
        sf.selfTest ? fs::path(sf.relPath).filename().string()
                    : sf.relPath);

    static const std::regex ifndefRe(R"(^\s*#\s*ifndef\s+(\w+))");
    static const std::regex defineRe(R"(^\s*#\s*define\s+(\w+))");

    int directiveIndex = 0;
    std::string openGuard;
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        const std::string &line = sf.code[i];
        if (line.find('#') == std::string::npos)
            continue;
        std::smatch m;
        if (directiveIndex == 0) {
            if (!std::regex_search(line, m, ifndefRe)) {
                report(sf, static_cast<int>(i) + 1, "include-guard",
                       "first preprocessor directive must be '#ifndef " +
                           guard + "'",
                       out);
                return;
            }
            openGuard = m[1].str();
            if (openGuard != guard) {
                report(sf, static_cast<int>(i) + 1, "include-guard",
                       "guard '" + openGuard + "' should be '" + guard +
                           "'",
                       out);
                return;
            }
            directiveIndex = 1;
        } else {
            if (!std::regex_search(line, m, defineRe) ||
                m[1].str() != openGuard) {
                report(sf, static_cast<int>(i) + 1, "include-guard",
                       "'#ifndef " + openGuard +
                           "' must be followed by '#define " + openGuard +
                           "'",
                       out);
            }
            return;
        }
    }
    if (directiveIndex == 0)
        report(sf, 1, "include-guard",
               "header has no include guard (expected '" + guard + "')",
               out);
}

void
checkNamespace(const SourceFile &sf, std::vector<Diagnostic> &out)
{
    if (!ruleAppliesToPath(sf, "namespace-bctrl"))
        return;
    static const std::regex nsRe(R"(\bnamespace\s+bctrl\b)");
    for (const std::string &line : sf.code)
        if (std::regex_search(line, nsRe))
            return;
    report(sf, 1, "namespace-bctrl",
           "no 'namespace bctrl' in a src/ file", out);
}

// ---------------------------------------------------------------------
// missing-override: a brace-tracking scan that knows which class bodies
// have a base clause.

void
checkMissingOverride(const SourceFile &sf, std::vector<Diagnostic> &out)
{
    enum class ScopeKind { plain, classNoBase, classWithBase };
    std::vector<ScopeKind> scopes;

    bool pendingClass = false;   // between 'class X' and '{' or ';'
    bool pendingBase = false;    // saw ':' in the pending class head
    bool lastWasEnum = false;    // 'enum class' is not a class
    bool inVirtualStmt = false;  // between 'virtual' and ';' or '{'
    int virtualLine = 0;
    std::string virtualText;

    auto flushVirtual = [&](bool bodyFollows) {
        inVirtualStmt = false;
        std::string t = virtualText;
        // Trim trailing whitespace for the pure-virtual check.
        t.erase(t.find_last_not_of(" \t") + 1);
        const bool isOverride =
            t.find("override") != std::string::npos ||
            t.find("final") != std::string::npos;
        const bool isPure = !bodyFollows &&
                            (endsWith(t, "= 0") || endsWith(t, "=0"));
        const bool isDtor = t.find('~') != std::string::npos;
        if (!isOverride && !isPure && !isDtor)
            report(sf, virtualLine, "missing-override",
                   "virtual member of a derived class without "
                   "'override' (new pure-virtual interface points are "
                   "exempt)",
                   out);
    };

    for (std::size_t li = 0; li < sf.code.size(); ++li) {
        const std::string &line = sf.code[li];
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
                std::size_t j = i;
                while (j < line.size() &&
                       (std::isalnum(
                            static_cast<unsigned char>(line[j])) ||
                        line[j] == '_'))
                    ++j;
                const std::string word = line.substr(i, j - i);
                if (word == "enum") {
                    lastWasEnum = true;
                } else if (word == "class" || word == "struct") {
                    if (!lastWasEnum && !pendingClass &&
                        !inVirtualStmt) {
                        pendingClass = true;
                        pendingBase = false;
                    }
                    lastWasEnum = false;
                } else if (word == "virtual") {
                    if (!scopes.empty() &&
                        scopes.back() == ScopeKind::classWithBase &&
                        !pendingClass && !inVirtualStmt) {
                        inVirtualStmt = true;
                        virtualLine = static_cast<int>(li) + 1;
                        virtualText.clear();
                    }
                    lastWasEnum = false;
                } else {
                    lastWasEnum = false;
                }
                if (inVirtualStmt && word != "virtual") {
                    virtualText += word;
                    virtualText += ' ';
                }
                i = j - 1;
                continue;
            }
            if (inVirtualStmt && c != '{' && c != ';' &&
                !std::isspace(static_cast<unsigned char>(c))) {
                virtualText += c;
                // Normalize '=0' to '= 0' so the pure-virtual check is
                // spacing-insensitive.
                if (c == '=' || c == '~')
                    virtualText += ' ';
            }
            switch (c) {
              case ':':
                if (pendingClass) {
                    const bool doubleColon =
                        (i + 1 < line.size() && line[i + 1] == ':') ||
                        (i > 0 && line[i - 1] == ':');
                    if (!doubleColon)
                        pendingBase = true;
                }
                break;
              case ';':
                if (pendingClass)
                    pendingClass = false; // forward declaration
                else if (inVirtualStmt)
                    flushVirtual(false);
                break;
              case '{':
                if (inVirtualStmt)
                    flushVirtual(true); // inline body follows
                if (pendingClass) {
                    scopes.push_back(pendingBase
                                         ? ScopeKind::classWithBase
                                         : ScopeKind::classNoBase);
                    pendingClass = false;
                } else {
                    scopes.push_back(ScopeKind::plain);
                }
                break;
              case '}':
                if (!scopes.empty())
                    scopes.pop_back();
                break;
              default:
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// mutable-global-state: a brace-tracking scan that flags variable
// definitions at namespace scope unless they are immutable (const,
// constexpr, constinit) or sanctioned cross-thread state (std::atomic,
// thread_local). Function definitions, type definitions, templates and
// using/typedef aliases are exempt; anything containing '(' is treated
// as a declaration, not a variable, to stay conservative.

bool
mutableGlobalHead(const std::string &head)
{
    if (head.find('(') != std::string::npos)
        return false;

    static const std::set<std::string> kExempt = {
        "namespace",  "using",        "typedef",    "class",
        "struct",     "enum",         "union",      "template",
        "extern",     "friend",       "static_assert",
        "const",      "constexpr",    "constinit",  "thread_local",
        "atomic",     "operator",     "asm",        "concept",
    };

    std::size_t words = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
        const char c = head[i];
        if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_')
            continue;
        std::size_t j = i;
        while (j < head.size() &&
               (std::isalnum(static_cast<unsigned char>(head[j])) ||
                head[j] == '_'))
            ++j;
        if (kExempt.count(head.substr(i, j - i)))
            return false;
        ++words;
        i = j;
    }
    // A definition needs at least a type and a name.
    return words >= 2;
}

void
checkMutableGlobals(const SourceFile &sf, std::vector<Diagnostic> &out)
{
    if (!ruleAppliesToPath(sf, "mutable-global-state"))
        return;

    // Scope stack: true = namespace (or global) scope, false = any
    // other brace scope (class, function, enum, initializer, ...).
    std::vector<bool> scopes;
    std::string head;
    int headLine = 0;

    auto atNamespaceScope = [&scopes]() {
        for (bool ns : scopes)
            if (!ns)
                return false;
        return true;
    };
    auto headIsNamespace = [&head]() {
        static const std::regex nsRe(R"(\bnamespace\b)");
        return std::regex_search(head, nsRe);
    };

    for (std::size_t li = 0; li < sf.code.size(); ++li) {
        const std::string &line = sf.code[li];
        const std::size_t first = line.find_first_not_of(" \t");
        if (first != std::string::npos && line[first] == '#')
            continue; // preprocessor line
        for (const char c : line) {
            switch (c) {
              case '{':
                if (headIsNamespace()) {
                    scopes.push_back(true);
                } else {
                    // Brace-initialized definition: `int x{3};` or
                    // `T t = {...};` — judge the head before the brace.
                    if (atNamespaceScope() && mutableGlobalHead(head))
                        report(sf, headLine, "mutable-global-state",
                               "mutable variable at namespace scope; "
                               "make it per-System, const, or "
                               "std::atomic",
                               out);
                    scopes.push_back(false);
                }
                head.clear();
                break;
              case '}':
                if (!scopes.empty())
                    scopes.pop_back();
                head.clear();
                break;
              case ';':
                if (atNamespaceScope() && mutableGlobalHead(head))
                    report(sf, headLine, "mutable-global-state",
                           "mutable variable at namespace scope; make "
                           "it per-System, const, or std::atomic",
                           out);
                head.clear();
                break;
              default:
                // Initializers can contain arbitrary expressions
                // (including braces on the RHS of `=`); judging the
                // head up to '=' is enough, so stop accumulating.
                if (head.find('=') != std::string::npos)
                    break;
                if (head.empty()) {
                    if (std::isspace(static_cast<unsigned char>(c)))
                        break; // never start a head with whitespace
                    headLine = static_cast<int>(li) + 1;
                }
                head += c;
                break;
            }
        }
        if (!head.empty() && head.find('=') == std::string::npos)
            head += ' ';
    }
}

// ---------------------------------------------------------------------
// spec-state-leak: in the components a wrong-path request traverses
// (src/gpu, src/vm, src/bc), every mutation of shared lookup state —
// a `.fill(...)` or `.insert(...)` member call — must be commit-gated:
// the site, or the lines just above it, must carry a spec/speculative
// token (code or comment) proving the author decided what a squashed
// crossing may leave behind (vm/spec_policy.hh). An ungated fill site
// is a potential speculative side channel: the squash-leaves-no-trace
// chaos invariant cannot see state it does not know exists.

void
checkSpecStateLeak(const SourceFile &sf, std::vector<Diagnostic> &out)
{
    if (!ruleAppliesToPath(sf, "spec-state-leak"))
        return;

    static const std::regex fillRe(R"((\.|->)\s*(fill|insert)\s*\()");
    static const std::regex specRe(R"([Ss]pec)");
    constexpr std::size_t kWindow = 12; // lines of context above

    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (!std::regex_search(sf.code[i], fillRe))
            continue;
        bool gated = false;
        const std::size_t lo = i >= kWindow ? i - kWindow : 0;
        // Raw lines: the gate is usually a comment, sometimes an
        // identifier (pkt->speculative, specRng_).
        for (std::size_t j = lo; j <= i && !gated; ++j)
            gated = std::regex_search(sf.raw[j], specRe);
        if (!gated)
            report(sf, static_cast<int>(i) + 1, "spec-state-leak",
                   "fill/insert of shared lookup state with no "
                   "spec/speculative token within the preceding " +
                       std::to_string(kWindow) +
                       " lines; gate it on the commit state (or "
                       "document why squashed speculation cannot "
                       "reach it)",
                   out);
    }
}

// ---------------------------------------------------------------------
// Driver.

bool
scanFile(const fs::path &path, const std::string &relPath, bool selfTest,
         std::vector<Diagnostic> &out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open " + path.string();
        return false;
    }
    SourceFile sf;
    sf.displayPath = path.string();
    sf.relPath = relPath;
    sf.selfTest = selfTest;
    std::string line;
    while (std::getline(in, line))
        sf.raw.push_back(line);

    splitViews(sf);
    parseSuppressions(sf);
    for (const auto &[ln, rules] : sf.lineAllows) {
        for (const std::string &r : rules) {
            if (!knownRule(r))
                out.push_back(Diagnostic{
                    sf.displayPath, ln, "unknown-rule",
                    "suppression names unknown rule '" + r + "'"});
        }
    }

    runPatternRules(sf, out);
    checkIncludeGuard(sf, out);
    checkNamespace(sf, out);
    checkMissingOverride(sf, out);
    checkMutableGlobals(sf, out);
    checkSpecStateLeak(sf, out);
    return true;
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".h";
}

void
collectFiles(const fs::path &root, std::vector<fs::path> &out)
{
    static const char *kDirs[] = {"src", "tests", "bench", "tools",
                                  "examples"};
    for (const char *dir : kDirs) {
        const fs::path base = root / dir;
        if (!fs::exists(base))
            continue;
        for (auto it = fs::recursive_directory_iterator(base);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_directory()) {
                const std::string name = it->path().filename().string();
                if (startsWith(name, "build") ||
                    name == "lint_fixtures" || name == ".git")
                    it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && isSourceFile(it->path()))
                out.push_back(it->path());
        }
    }
    std::sort(out.begin(), out.end());
}

void
printDiagnostics(const std::vector<Diagnostic> &diags)
{
    for (const Diagnostic &d : diags)
        std::fprintf(stderr, "%s:%d: error: [%s] %s\n", d.file.c_str(),
                     d.line, d.rule.c_str(), d.message.c_str());
}

int
selfTest(const fs::path &dir)
{
    if (!fs::exists(dir)) {
        std::fprintf(stderr, "bclint: fixture dir %s does not exist\n",
                     dir.string().c_str());
        return 2;
    }
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() && isSourceFile(entry.path()))
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());

    int failures = 0;
    std::set<std::string> rulesWithFixtures;
    for (const fs::path &file : files) {
        const std::string stem = file.stem().string();
        const std::size_t sep = stem.find("__");
        if (sep == std::string::npos) {
            std::fprintf(stderr,
                         "FAIL %s: fixture names must look like "
                         "<rule-id>__fires.* or <rule-id>__suppressed.*\n",
                         file.string().c_str());
            ++failures;
            continue;
        }
        const std::string rule = stem.substr(0, sep);
        const std::string kind = stem.substr(sep + 2);
        if (!knownRule(rule)) {
            std::fprintf(stderr, "FAIL %s: unknown rule '%s'\n",
                         file.string().c_str(), rule.c_str());
            ++failures;
            continue;
        }

        std::vector<Diagnostic> diags;
        std::string error;
        if (!scanFile(file, file.filename().string(), true, diags,
                      &error)) {
            std::fprintf(stderr, "FAIL %s: %s\n", file.string().c_str(),
                         error.c_str());
            ++failures;
            continue;
        }

        std::size_t ofRule = 0, ofOthers = 0;
        for (const Diagnostic &d : diags)
            (d.rule == rule ? ofRule : ofOthers) += 1;

        bool ok;
        if (kind == "fires") {
            ok = ofRule >= 1 && ofOthers == 0;
            rulesWithFixtures.insert(rule);
        } else if (kind == "suppressed") {
            ok = diags.empty();
        } else {
            std::fprintf(stderr, "FAIL %s: unknown fixture kind '%s'\n",
                         file.string().c_str(), kind.c_str());
            ++failures;
            continue;
        }

        if (ok) {
            std::printf("PASS %s\n", file.filename().string().c_str());
        } else {
            std::fprintf(stderr,
                         "FAIL %s: expected %s, got %zu findings of "
                         "'%s' and %zu of other rules\n",
                         file.string().c_str(),
                         kind == "fires"
                             ? "only findings of the named rule"
                             : "no findings",
                         ofRule, rule.c_str(), ofOthers);
            printDiagnostics(diags);
            ++failures;
        }
    }

    for (const RuleInfo &r : kRules) {
        if (!rulesWithFixtures.count(r.id)) {
            std::fprintf(stderr,
                         "FAIL missing '<%s>__fires' fixture: every "
                         "rule must prove it fires\n",
                         r.id);
            ++failures;
        }
    }

    if (failures != 0) {
        std::fprintf(stderr, "bclint self-test: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("bclint self-test: all fixtures pass\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = fs::current_path();
    fs::path selfTestDir;
    bool doSelfTest = false;
    std::vector<fs::path> explicitFiles;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bclint: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = next();
        } else if (arg == "--self-test") {
            doSelfTest = true;
            selfTestDir = next();
        } else if (arg == "--list-rules") {
            for (const RuleInfo &r : kRules)
                std::printf("%-20s %s\n", r.id, r.summary);
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bclint [--root DIR] [--self-test DIR] "
                "[--list-rules] [files...]\n"
                "Scans src/, tests/, bench/, tools/, examples/ under "
                "--root (default: cwd)\nunless explicit files are "
                "given. Exits 1 on any finding.\n");
            return 0;
        } else {
            explicitFiles.emplace_back(arg);
        }
    }

    if (doSelfTest)
        return selfTest(selfTestDir);

    std::vector<fs::path> files = explicitFiles;
    if (files.empty()) {
        collectFiles(root, files);
        if (files.empty()) {
            std::fprintf(stderr,
                         "bclint: no sources found under '%s' — wrong "
                         "--root?\n",
                         root.string().c_str());
            return 2;
        }
    }

    std::vector<Diagnostic> diags;
    for (const fs::path &file : files) {
        std::string rel = fs::path(file).lexically_proximate(root)
                              .generic_string();
        std::string error;
        if (!scanFile(file, rel, false, diags, &error)) {
            std::fprintf(stderr, "bclint: %s\n", error.c_str());
            return 2;
        }
    }

    if (!diags.empty()) {
        std::sort(diags.begin(), diags.end(),
                  [](const Diagnostic &a, const Diagnostic &b) {
                      if (a.file != b.file)
                          return a.file < b.file;
                      return a.line < b.line;
                  });
        printDiagnostics(diags);
        std::fprintf(stderr, "bclint: %zu finding(s) in %zu file(s)\n",
                     diags.size(), files.size());
        return 1;
    }
    std::printf("bclint: %zu files clean\n", files.size());
    return 0;
}
