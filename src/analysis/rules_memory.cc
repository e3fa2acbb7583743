#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/source_packs.h"
#include "common/string_util.h"

namespace cgkgr {
namespace analysis {
namespace internal {

/// \file
/// Memory pack: ownership, persistence, and page discipline. Ports the
/// retired regex lint's rules onto real token streams for cgkgr_analyze
/// (rule ids unchanged so existing NOLINT / allow markers keep working)
/// and adds mem-mmap-deref for the store:: page contract.

namespace {

/// Sanctioned std::ofstream writers: the ckpt subsystem (which implements
/// the atomic-publish protocol everyone else must go through), the obs
/// sinks (append-oriented telemetry, not recoverable state), the dataset
/// exporter, and the bench-artifact writer — the single sanctioned
/// raw-file JSON sink (exp::WriteArtifact; every perf artifact flows
/// through it rather than hand-rolled string concatenation).
bool OfstreamSanctioned(const std::string& path) {
  return PathStartsWith(path, "src/ckpt/") ||
         PathStartsWith(path, "src/obs/") || path == "src/data/io.cc" ||
         path == "src/exp/artifact.cc";
}

bool IsStdQualified(const std::vector<Token>& toks, size_t i) {
  return i >= 2 && toks[i - 1].text == "::" && TokIs(toks, i - 2, "std");
}

/// naked-new: `new` outside std::make_unique/make_shared. The library owns
/// memory via containers and smart pointers only. `operator new`
/// declarations are not allocations.
void NakedNewRule(const TranslationUnit& tu, Emitter* emitter) {
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!TokIs(toks, i, "new")) continue;
    if (i > 0 && TokIs(toks, i - 1, "operator")) continue;
    const Token& next = toks[i + 1];
    if (next.kind != TokKind::kIdent && next.text != "(" &&
        next.text != "::") {
      continue;
    }
    emitter->Emit(tu.lex, toks[i].line, "naked-new",
                  "naked new; use std::make_unique/make_shared or a "
                  "container");
  }
}

/// raw-ofstream: std::ofstream outside the sanctioned writers.
void RawOfstreamRule(const TranslationUnit& tu, Emitter* emitter) {
  if (OfstreamSanctioned(tu.lex.path)) return;
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "ofstream" &&
        IsStdQualified(toks, i)) {
      emitter->Emit(tu.lex, toks[i].line, "raw-ofstream",
                    "raw std::ofstream state write outside src/ckpt/; "
                    "persist through ckpt::Writer (atomic publish + CRC "
                    "framing, docs/checkpointing.md)");
    }
  }
}

/// printf-family: C stdio output in src/; output goes through CGKGR_LOG,
/// TablePrinter, or StrFormat (sanctioned sinks carry file-level allows).
void PrintfFamilyRule(const TranslationUnit& tu, Emitter* emitter) {
  static const std::set<std::string> kPrintf = {
      "printf", "fprintf",  "vprintf",   "vfprintf", "sprintf",  "snprintf",
      "vsprintf", "vsnprintf", "puts",   "fputs",    "putchar",  "fputc"};
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent && kPrintf.count(toks[i].text) != 0 &&
        toks[i + 1].text == "(") {
      emitter->Emit(tu.lex, toks[i].line, "printf-family",
                    "printf-family call in src/; use CGKGR_LOG, "
                    "TablePrinter, or StrFormat");
    }
  }
}

/// adhoc-timing: direct std::chrono clock use outside the timing substrate
/// (src/obs/ and common/timer.h). Timing goes through WallTimer and the
/// obs instruments so every measurement lands in the metrics registry.
void AdhocTimingRule(const TranslationUnit& tu, Emitter* emitter) {
  const std::string& path = tu.lex.path;
  if (PathStartsWith(path, "src/obs/") || path == "src/common/timer.h") {
    return;
  }
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool hit = (t == "chrono" && IsStdQualified(toks, i)) ||
                     t == "steady_clock" || t == "high_resolution_clock" ||
                     t == "system_clock";
    if (hit) {
      emitter->Emit(tu.lex, toks[i].line, "adhoc-timing",
                    "ad-hoc std::chrono timing; use WallTimer "
                    "(common/timer.h) and record into the obs metrics "
                    "registry / trace spans");
    }
  }
}

/// raw-histogram: a class/struct named *Histogram outside src/obs/.
/// Forward declarations (`class Histogram;`) are fine.
void RawHistogramRule(const TranslationUnit& tu, Emitter* emitter) {
  if (PathStartsWith(tu.lex.path, "src/obs/")) return;
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!TokIs(toks, i, "class") && !TokIs(toks, i, "struct")) continue;
    const Token& name = toks[i + 1];
    if (name.kind != TokKind::kIdent) continue;
    const std::string& n = name.text;
    static const std::string kSuffix = "Histogram";
    if (n.size() < kSuffix.size() ||
        n.compare(n.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
      continue;
    }
    if (toks[i + 2].text == ";") continue;  // bare forward declaration
    emitter->Emit(tu.lex, name.line, "raw-histogram",
                  "hand-rolled histogram type outside src/obs/; use "
                  "obs::Histogram via the MetricsRegistry");
  }
}

/// mem-mmap-deref: MmapFile (the raw page-granular mapping) named outside
/// src/store/. Page access is validated and RSS-bounded only inside the
/// sanctioned store:: readers; everyone else consumes their typed views.
void MmapDerefRule(const TranslationUnit& tu, Emitter* emitter) {
  if (PathStartsWith(tu.lex.path, "src/store/")) return;
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "MmapFile") {
      continue;
    }
    // A bare forward declaration names the type without touching pages.
    if (i > 0 &&
        (TokIs(toks, i - 1, "class") || TokIs(toks, i - 1, "struct")) &&
        TokIs(toks, i + 1, ";")) {
      continue;
    }
    emitter->Emit(tu.lex, toks[i].line, "mem-mmap-deref",
                  "MmapFile page access outside src/store/; raw page "
                  "derefs bypass bounds validation and the bounded-RSS "
                  "contract — read through the store:: readers");
  }
}

/// discarded-status: a call to a Status/Result-returning project function
/// used as a bare statement. Token-stream statement anchoring resolves
/// multi-line calls, which the retired line-local regex could not: an
/// argument call on a continuation line of CGKGR_RETURN_NOT_OK(...) looked
/// like a fresh statement to the regex and false-positived.
void DiscardedStatusRule(const RepoModel& repo, const TranslationUnit& tu,
                         Emitter* emitter) {
  const std::vector<Token>& toks = tu.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].preprocessor ||
        repo.status_functions.count(toks[i].text) == 0) {
      continue;
    }
    if (toks[i + 1].text != "(" || toks[i + 1].match < 0) continue;
    // The full call expression must be the whole statement: `... ) ;`.
    const size_t close = static_cast<size_t>(toks[i + 1].match);
    if (!TokIs(toks, close + 1, ";")) continue;
    // Walk back over a receiver chain (obj.member->Call / ns::Call) to the
    // statement's first token.
    size_t start = i;
    while (start >= 2 &&
           (toks[start - 1].text == "." || toks[start - 1].text == "->" ||
            toks[start - 1].text == "::") &&
           toks[start - 2].kind == TokKind::kIdent) {
      start -= 2;
    }
    bool bare = false;
    if (start == 0) {
      bare = true;
    } else {
      const std::string& prev = toks[start - 1].text;
      if (prev == ";" || prev == "{" || prev == "}" || prev == "else" ||
          prev == "do") {
        bare = true;
      } else if (prev == ")" && toks[start - 1].match >= 0) {
        // `if (...) Call();` is a bare statement; `(void)Call();` is an
        // explicit discard; any other preceding `)` (casts, macro heads)
        // is treated as consuming the value.
        const size_t open = static_cast<size_t>(toks[start - 1].match);
        const bool control =
            open > 0 &&
            (TokIs(toks, open - 1, "if") || TokIs(toks, open - 1, "for") ||
             TokIs(toks, open - 1, "while") ||
             TokIs(toks, open - 1, "switch"));
        const bool void_cast =
            open + 2 == start && TokIs(toks, open + 1, "void");
        bare = control && !void_cast;
      }
    }
    if (!bare) continue;
    emitter->Emit(
        tu.lex, toks[i].line, "discarded-status",
        StrFormat("result of Status/Result-returning '%s' is discarded; "
                  "handle it or CGKGR_CHECK(...ok())",
                  toks[i].text.c_str()));
  }
}

/// One curated include-what-you-use binding: symbol -> defining header.
struct IwyuSymbol {
  const char* symbol;
  /// When true, `symbol` is matched as an identifier prefix (macro
  /// families like CGKGR_CHECK / CGKGR_CHECK_MSG).
  bool prefix;
  const char* header;
};

const std::vector<IwyuSymbol>& IwyuTable() {
  static const std::vector<IwyuSymbol> kTable = {
      {"CGKGR_CHECK", true, "common/macros.h"},
      {"CGKGR_DCHECK", true, "common/macros.h"},
      {"CGKGR_RETURN_NOT_OK", true, "common/macros.h"},
      {"CGKGR_GUARDED_BY", true, "common/macros.h"},
      {"CGKGR_PT_GUARDED_BY", true, "common/macros.h"},
      {"CGKGR_REQUIRES", true, "common/macros.h"},
      {"CGKGR_ACQUIRE", true, "common/macros.h"},
      {"CGKGR_ACQUIRED", true, "common/macros.h"},
      {"CGKGR_RELEASE", true, "common/macros.h"},
      {"CGKGR_EXCLUDES", true, "common/macros.h"},
      {"CGKGR_CAPABILITY", true, "common/macros.h"},
      {"CGKGR_LOG", false, "common/logging.h"},
      {"TablePrinter", false, "common/table_printer.h"},
      {"StrFormat", false, "common/string_util.h"},
      {"MutexLock", false, "common/mutex.h"},
      {"ReaderMutexLock", false, "common/mutex.h"},
      {"WriterMutexLock", false, "common/mutex.h"},
      {"CondVar", false, "common/mutex.h"},
      {"ThreadPool", false, "common/thread_pool.h"},
      {"WallTimer", false, "common/timer.h"},
      {"MetricsRegistry", false, "obs/metrics.h"},
      {"ScopedSpan", false, "obs/trace.h"},
      {"TraceCollector", false, "obs/trace.h"},
      {"JsonlSink", false, "obs/jsonl.h"},
      {"JsonlRow", false, "obs/jsonl.h"},
      {"JsonEscape", false, "obs/json.h"},
      {"ProcessStats", false, "obs/process_stats.h"},
      {"SampleProcessStats", false, "obs/process_stats.h"},
      {"ExperimentSpec", false, "exp/spec.h"},
      {"CaseSpec", false, "exp/spec.h"},
      {"CaseResult", false, "exp/artifact.h"},
      {"WriteArtifact", false, "exp/artifact.h"},
      {"ReadArtifact", false, "exp/artifact.h"},
      {"CompareArtifacts", false, "exp/compare.h"},
      {"RunSpec", false, "exp/runner.h"},
      {"ListFilesWithSuffixes", false, "ckpt/io.h"},
      {"SnapshotDelta", false, "serve/delta.h"},
      {"BuildDelta", false, "serve/delta.h"},
      {"ApplyDelta", false, "serve/delta.h"},
      {"SnapshotFingerprint", false, "serve/delta.h"},
      {"ResponseStatusName", false, "serve/request.h"},
      {"Router", false, "serve/router.h"},
      {"Frontend", false, "serve/frontend.h"},
      {"EngineStats", false, "serve/stats.h"},
      {"FrontendStats", false, "serve/stats.h"},
  };
  return kTable;
}

/// True when the TU forward-declares `symbol` — the IWYU-sanctioned way to
/// name a type used only by pointer or reference.
bool ForwardDeclares(const std::vector<Token>& toks,
                     const std::string& symbol) {
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if ((TokIs(toks, i, "class") || TokIs(toks, i, "struct")) &&
        toks[i + 1].kind == TokKind::kIdent && toks[i + 1].text == symbol &&
        toks[i + 2].text == ";") {
      return true;
    }
  }
  return false;
}

/// iwyu-project: a project-owned symbol used without directly including
/// the header that defines it (restricted to the curated table above; the
/// goal is catching headers leaking transitively, not full IWYU).
void IwyuRule(const TranslationUnit& tu, Emitter* emitter) {
  const std::vector<Token>& toks = tu.lex.tokens;
  // First use of each needed header: header -> (line, symbol text).
  std::map<std::string, std::pair<int, std::string>> needed;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    for (const IwyuSymbol& entry : IwyuTable()) {
      const bool hit = entry.prefix ? t.rfind(entry.symbol, 0) == 0
                                    : t == entry.symbol;
      if (!hit) continue;
      needed.emplace(entry.header, std::make_pair(toks[i].line, t));
      break;
    }
  }
  for (const auto& [header, use] : needed) {
    if (tu.lex.path == "src/" + header) continue;  // the defining header
    if (std::find(tu.lex.includes.begin(), tu.lex.includes.end(), header) !=
        tu.lex.includes.end()) {
      continue;
    }
    if (ForwardDeclares(toks, use.second)) continue;
    emitter->Emit(tu.lex, use.first, "iwyu-project",
                  StrFormat("uses '%s' without directly including \"%s\"",
                            use.second.c_str(), header.c_str()));
  }
}

}  // namespace

void RunMemoryPack(const RepoModel& repo, Emitter* emitter) {
  for (const TranslationUnit& tu : repo.tus) {
    if (!InSrc(tu.lex.path)) continue;
    if (emitter->Enabled("naked-new")) NakedNewRule(tu, emitter);
    if (emitter->Enabled("raw-ofstream")) RawOfstreamRule(tu, emitter);
    if (emitter->Enabled("printf-family")) PrintfFamilyRule(tu, emitter);
    if (emitter->Enabled("adhoc-timing")) AdhocTimingRule(tu, emitter);
    if (emitter->Enabled("raw-histogram")) RawHistogramRule(tu, emitter);
    if (emitter->Enabled("mem-mmap-deref")) MmapDerefRule(tu, emitter);
    if (emitter->Enabled("discarded-status")) {
      DiscardedStatusRule(repo, tu, emitter);
    }
    if (emitter->Enabled("iwyu-project")) IwyuRule(tu, emitter);
  }
}

}  // namespace internal
}  // namespace analysis
}  // namespace cgkgr
