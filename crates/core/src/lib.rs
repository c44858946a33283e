//! The extensible-translator driver: extension registry, composition with
//! the modular analyses, and the end-to-end compilation pipeline.
//!
//! This crate is the paper's user-facing story (§II): "the programmer
//! using an extensible language is free to choose the set of extensions
//! that fits his or her problem at hand and direct a set of
//! compiler-generating tools to compose the extensions with the host
//! language and construct the compiler for their customized language."
//!
//! * [`Registry::standard`] holds the host CMINUS specification and the
//!   four extensions of the paper. The matrix and rc-pointer extensions
//!   pass `isComposable` and compose as independent units; the tuples
//!   extension fails it (its initial terminal is the host's `(`) and is
//!   therefore "packaged as part of the host language" exactly as §VI-A
//!   describes; the transformation extension's clause necessarily begins
//!   with host syntax, so it is packaged with the matrix extension (§V
//!   presents it as an extension of the matrix constructs).
//! * [`Registry::compiler`] composes the chosen extensions — verifying
//!   each independently composable one with the modular determinism
//!   analysis first — and constructs a [`Compiler`]. Both happen the first
//!   time a set of extensions is selected; the result is cached. For the
//!   standard full language both happened when this crate was built
//!   (`build.rs`, as Copper generates a parser once), and the first
//!   selection reads the grammar view and the tables that build wrote.
//! * [`Compiler`] runs the full pipeline: context-aware scan + LALR(1)
//!   parse → AST → extended semantic analysis → high-level optimizations
//!   → lowering to parallel loop IR → C emission ([`Compiler::compile_to_c`])
//!   or direct execution ([`Compiler::run`]).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cmm_ag::{analyze_fragment, WellDefinednessReport};
use cmm_ast::Diag;
use cmm_forkjoin::{ForkJoinPool, Schedule};
use cmm_grammar::{is_composable, ComposabilityReport, ComposedGrammar, GrammarFragment, Parser};
use cmm_lang::typecheck::{ExtSet, TypeInfo};
use cmm_lang::{
    ag_fragment, check_program, fuse_slice_indices, host_grammar, lower_functions, parse_program,
    Handlers, LowerOptions,
};
use cmm_loopir::emit::Emitter;
use cmm_loopir::{
    Bytecode, BytecodeBuilder, EmitError, Interp, InterpError, IrFunction, IrProgram, IrStmt,
    LimitKind, Limits, LoopCost, Name,
};

pub use cmm_lang::typecheck::ExtSet as EnabledExtensions;

mod cache;
mod gcc;
pub mod json;
mod metrics;
mod standard;
pub use gcc::{
    build_and_run_c, compile_and_run_c, compile_and_run_c_with_timeout, gcc_available,
    gcc_available_or_skip, CRun,
};
pub use json::{json_str, Json};
pub use metrics::{CompileMetrics, ParserCacheStats, PassTiming, ProfileReport, METRICS_SCHEMA};
pub use standard::Extension;

/// One composition of the host with a selected set of extensions: the
/// parser, the build rule of each of its productions, and what was
/// decided while building it. An entry exists only
/// if every selected independently-composable extension passed
/// `isComposable` — the paper's §VI-A guarantee is a property of the
/// (host, extension) pairs, so it is established when the set is first
/// selected and not argued again at each use.
struct Composition {
    parser: Parser,
    /// The parser's semantic actions, by production id.
    handlers: Handlers,
    /// The semantic-analysis switches of the selected extensions.
    exts: ExtSet,
}

impl Composition {
    fn new(parser: Parser, exts: ExtSet) -> Composition {
        let handlers = Handlers::new(parser.view());
        Composition { parser, handlers, exts }
    }
}

/// Memo of compositions keyed by the canonical (sorted) set of selected
/// extension names.
///
/// Everything [`Registry::compiler`] derives from the selected set — the
/// modular determinism analysis of each independently composable
/// extension (one LALR(1) build of host ∪ E apiece), the composed
/// grammar, its LALR(1) tables and scanner DFA — happens on the miss
/// path, once per set per process (the CLI builds one compiler per
/// invocation, but tests, benchmarks, and a `cmmc serve` daemon build
/// many), except for the standard full set, whose miss reads the tables
/// built with the crate ([`ParserCacheStats::prebuilt`] counts those); a
/// hit is a lock, a lookup and an `Arc` clone. [`Parser`] has no
/// interior mutability, so one entry is safely shared across compilers
/// and threads. Failures are never cached: a failing extension set
/// re-runs the analysis and reports fresh each time.
///
/// The cache is **bounded** ([`DEFAULT_PARSER_CACHE_CAPACITY`] entries,
/// LRU eviction): unbounded growth over distinct extension sets would be
/// a slow memory leak in a long-running daemon. Evictions are counted in
/// [`ParserCacheStats::evictions`].
type ParserCache = cache::LruCache<Arc<Composition>>;

/// Maximum compositions retained by the process-global cache. The 2^5
/// extension subsets select 24 distinct compositions (`ext-transform`
/// rides only with `ext-matrix`: 16 sets with it, 8 without), but each
/// resident entry pins a full LALR(1) table, so the bound is kept below
/// that; the LRU policy keeps every *hot* composition resident.
pub const DEFAULT_PARSER_CACHE_CAPACITY: usize = 16;

/// The process-wide cache shared by every [`Registry::standard`]
/// instance. Sharing is sound because `standard()` always registers the
/// same grammar fragments and nothing can change them — a registry that
/// [adds](Registry::add_extension) one moves to a cache of its own — so
/// equal name sets imply equal compositions.
fn shared_parser_cache() -> Arc<ParserCache> {
    static CACHE: OnceLock<Arc<ParserCache>> = OnceLock::new();
    Arc::clone(
        CACHE.get_or_init(|| Arc::new(ParserCache::with_capacity(DEFAULT_PARSER_CACHE_CAPACITY))),
    )
}

/// Names of every extension [`Registry::standard`] registers: the full
/// language.
pub const ALL_EXTENSIONS: [&str; 5] = [
    cmm_ext_matrix::NAME,
    cmm_ext_tuples::NAME,
    cmm_ext_rcptr::NAME,
    cmm_ext_transform::NAME,
    cmm_ext_cilk::NAME,
];

/// The standard full composition as `build.rs` verified and built it when
/// this crate was compiled: the encoding of what it was built from
/// ([`standard::composition_encoding`]) and `standard_parser`, which reads
/// the grammar view and the tables it wrote in place.
mod prebuilt {
    pub(crate) static ENCODING: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/standard.enc"));
    include!(concat!(env!("OUT_DIR"), "/standard_parser.rs"));

    /// The composed grammar `build.rs` wrote `standard_parser` from, for
    /// tooling that asks the parser for it.
    pub(crate) fn grammar() -> cmm_grammar::ComposedGrammar {
        let extensions = crate::standard::extensions();
        let fragments: Vec<_> = extensions.iter().map(|e| &e.grammar).collect();
        cmm_grammar::ComposedGrammar::compose(&cmm_lang::host_grammar(), &fragments)
            .expect("build.rs composed these fragments")
    }
}

/// The host specification plus available extensions.
pub struct Registry {
    host: GrammarFragment,
    /// Available extensions in registration order.
    extensions: Vec<Extension>,
    /// Composition memo; `standard()` registries share one process-wide
    /// cache so repeated compiler construction for the same extension set
    /// costs one verification and one composition, total.
    parser_cache: Arc<ParserCache>,
}

impl Registry {
    /// The paper's configuration: CMINUS host; matrix, rc-pointer and cilk
    /// extensions independently composable; tuples packaged with the host;
    /// transformations packaged with the matrix extension.
    pub fn standard() -> Registry {
        Registry {
            host: host_grammar(),
            extensions: standard::extensions(),
            parser_cache: shared_parser_cache(),
        }
    }

    /// The host grammar fragment.
    pub fn host(&self) -> &GrammarFragment {
        &self.host
    }

    /// The registered extensions, in registration order.
    pub fn extensions(&self) -> &[Extension] {
        &self.extensions
    }

    /// Register `extension` after the others, unless its name is taken.
    ///
    /// The process-wide cache of `standard()` registries is keyed by
    /// extension names, which stand for fragments only while every
    /// registry holding the cache registers the same ones; from here on
    /// this registry composes into a cache of its own.
    pub fn add_extension(&mut self, extension: Extension) -> Result<(), CompileError> {
        if self.extensions.iter().any(|e| e.name == extension.name) {
            return Err(CompileError::Compose(format!(
                "extension '{}' is already registered",
                extension.name
            )));
        }
        self.extensions.push(extension);
        self.parser_cache = Arc::new(ParserCache::with_capacity(DEFAULT_PARSER_CACHE_CAPACITY));
        Ok(())
    }

    /// Run the modular determinism analysis for every extension.
    pub fn composability_reports(&self) -> Vec<ComposabilityReport> {
        self.extensions
            .iter()
            .map(|e| is_composable(&self.host, &e.grammar))
            .collect()
    }

    /// Run the modular well-definedness analysis for every extension, on
    /// the AG modules derived from the fragments and the AST rules.
    pub fn well_definedness_reports(&self) -> Vec<WellDefinednessReport> {
        let host = ag_fragment(&self.host, None);
        self.extensions
            .iter()
            .map(|e| analyze_fragment(&host, &ag_fragment(&e.grammar, Some(&self.host))))
            .collect()
    }

    /// Hit/miss/eviction counters of the composition cache behind
    /// [`Registry::compiler`] (process-lifetime totals for a `standard()`
    /// registry).
    pub fn parser_cache_stats(&self) -> ParserCacheStats {
        self.parser_cache.stats()
    }

    /// Compose the host with the named extensions (packaged companions
    /// are pulled in automatically) and construct a compiler.
    ///
    /// Independently composable extensions are verified with
    /// `isComposable` before composition — the paper's guarantee that the
    /// user "need not be an expert in programming language design" to
    /// compose safely. Verification and composition run the first time a
    /// set is selected; afterwards the set's cache entry stands for both.
    pub fn compiler(&self, enabled: &[&str]) -> Result<Compiler, CompileError> {
        for name in enabled {
            if !self.extensions.iter().any(|e| e.name == *name) {
                return Err(CompileError::UnknownExtension((*name).to_string()));
            }
        }
        let on = |n: &str| enabled.contains(&n);
        // An extension packaged with another rides along only with it.
        let selected: Vec<&Extension> = self
            .extensions
            .iter()
            .filter(|e| on(&e.name) && e.requires.is_none_or(on))
            .collect();
        // The cache key is the *selected* set (after packaging rules),
        // sorted so request order never splits equivalent compositions
        // into distinct entries.
        let mut key: Vec<String> = selected.iter().map(|e| e.name.clone()).collect();
        key.sort();
        let composition = self
            .parser_cache
            .get_or_build(key, || self.compose(&selected).map(Arc::new))?;
        Ok(Compiler {
            composition,
            cache: Arc::clone(&self.parser_cache),
            options: LowerOptions::default(),
        })
    }

    /// The miss path of [`Registry::compiler`]: verify, then compose.
    ///
    /// `build.rs` did both for the standard full selection when this crate
    /// was compiled. If the selected fragments and their packaging are
    /// exactly those, byte for byte, the parser reads the grammar view and
    /// the tables it wrote, and neither the analyses nor the builders run
    /// again: they are functions of that input alone. Not even the grammar
    /// is composed unless tooling asks the parser for it. Anything else — a
    /// subset, an added extension, another host — is verified and built
    /// here.
    fn compose(&self, selected: &[&Extension]) -> Result<Composition, CompileError> {
        let exts = selected.iter().fold(ExtSet::HOST, |set, e| set.with(e.ext));
        if standard::composition_encoding(&self.host, selected) == prebuilt::ENCODING {
            self.parser_cache.count_prebuilt();
            return Ok(Composition::new(prebuilt::standard_parser(prebuilt::grammar), exts));
        }
        let fragments: Vec<&GrammarFragment> = selected.iter().map(|e| &e.grammar).collect();
        // Verify the independently composable ones.
        let failing: Vec<ComposabilityReport> = selected
            .iter()
            .filter(|e| e.packaged.is_none())
            .map(|e| is_composable(&self.host, &e.grammar))
            .filter(|report| !report.passed)
            .collect();
        if !failing.is_empty() {
            return Err(CompileError::Composition(failing));
        }
        let grammar = ComposedGrammar::compose(&self.host, &fragments)
            .map_err(|e| CompileError::Compose(e.to_string()))?;
        let parser = Parser::new(grammar).map_err(|conflicts| {
            CompileError::Compose(format!(
                "composed grammar is not LALR(1): {} conflicts, first: {}",
                conflicts.len(),
                conflicts
                    .first()
                    .map(|c| c.description.clone())
                    .unwrap_or_default()
            ))
        })?;
        Ok(Composition::new(parser, exts))
    }
}

/// Pipeline failure.
#[derive(Debug)]
pub enum CompileError {
    /// Requested extension is not registered.
    UnknownExtension(String),
    /// An extension failed the modular determinism analysis.
    Composition(Vec<ComposabilityReport>),
    /// Grammar composition failed (duplicate names etc.).
    Compose(String),
    /// Scanning/parsing failed.
    Parse(String),
    /// AST construction failed.
    Build(String),
    /// Semantic analysis reported errors.
    Type(Vec<Diag>),
    /// Lowering reported an error (e.g. a §V transform naming no loop).
    Lower(Diag),
    /// C emission rejected a structurally invalid IR program (used to be
    /// an emitter panic).
    Emit(EmitError),
    /// The interpreted program failed at runtime.
    Runtime(String),
    /// A fork-join worker panicked while executing the program's parallel
    /// region. The pool (and the process) recovered; only this run's
    /// result is lost. Distinct from [`CompileError::Runtime`] so session
    /// hosts (`cmmc serve`) can report tenant-fault isolation to clients.
    Panic(String),
    /// A function does not fit the bytecode VM's `u16` registers or
    /// tables: the message names it and the limit. Reported before the
    /// program starts, as a compile error.
    VmLimit(String),
    /// The program exceeded a configured resource budget ([`Limits`]).
    Limit {
        /// Which budget was exceeded.
        kind: LimitKind,
        /// Human-readable diagnostic.
        message: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnknownExtension(n) => write!(f, "unknown extension '{n}'"),
            CompileError::Composition(reports) => {
                writeln!(f, "extension composition rejected:")?;
                for r in reports {
                    write!(f, "{r}")?;
                }
                Ok(())
            }
            CompileError::Compose(m) => write!(f, "composition failed: {m}"),
            CompileError::Parse(m) | CompileError::Build(m) | CompileError::Runtime(m) => {
                write!(f, "{m}")
            }
            CompileError::Panic(m) => write!(f, "worker panic: {m}"),
            CompileError::VmLimit(m) => write!(f, "bytecode limit: {m}"),
            CompileError::Type(diags) => {
                for d in diags {
                    writeln!(f, "{d}")?;
                }
                Ok(())
            }
            CompileError::Lower(d) => write!(f, "{d}"),
            CompileError::Emit(e) => write!(f, "emit error: {e}"),
            CompileError::Limit { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A constructed translator for one composition of extensions.
pub struct Compiler {
    composition: Arc<Composition>,
    cache: Arc<ParserCache>,
    /// Lowering options (high-level optimizations, auto-parallelization);
    /// public so experiments can toggle the ablation knobs.
    pub options: LowerOptions,
}

// `cmmc serve` hands compilers and registries to concurrent session
// workers; the whole compile surface must stay `Send + Sync`-clean (the
// parser is immutable behind an `Arc`, the cache is internally locked).
// A compile-time assertion catches any future interior-mutability slip.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Compiler>();
    assert_send_sync::<Registry>();
    assert_send_sync::<CompileError>();
};

/// Result of running a program through the interpreter.
#[derive(Debug)]
pub struct RunResult {
    /// Captured `print*` output.
    pub output: String,
    /// Buffers allocated during the run.
    pub allocations: u32,
    /// Buffers still live at exit (0 = the inserted reference counting
    /// freed everything).
    pub leaked: u32,
    /// Interpreter steps the run took ([`Interp::steps_used`]).
    pub steps_used: u64,
}

/// What the front end leaves after a translation: the checked (and
/// optimized) AST and its type information. A caller about to exit may
/// leave it to the process's exit instead of freeing it node by node.
pub type FrontEnd = (cmm_ast::Program, TypeInfo);

/// What [`Compiler::translate`] does with each function once it is
/// lowered and emitted.
enum Keep<'a> {
    /// Drop it.
    Nothing,
    /// Collect its IR.
    Ir(&'a mut Vec<IrFunction>),
    /// Compile it to bytecode, then drop it.
    Bytecode(&'a mut BytecodeBuilder),
}

impl Compiler {
    /// The composed grammar's parser (exposed for tooling/tests).
    pub fn parser(&self) -> &Parser {
        &self.composition.parser
    }

    /// The build rules the parser reduces with (exposed for tests).
    pub fn handlers(&self) -> &Handlers {
        &self.composition.handlers
    }

    /// The semantic-analysis switches of this composition: one per
    /// selected extension (after the packaging rules).
    pub fn extensions(&self) -> ExtSet {
        self.composition.exts
    }

    /// Hit/miss counters of the composed-parser cache this compiler was
    /// built from (process-lifetime totals).
    pub fn parser_cache_stats(&self) -> ParserCacheStats {
        self.cache.stats()
    }

    /// Parse + build + check: the front half of the pipeline.
    pub fn frontend(&self, src: &str) -> Result<cmm_ast::Program, CompileError> {
        self.frontend_checked(src, None).map(|(ast, _)| ast)
    }

    /// [`Compiler::frontend`] with the wall times of its three passes
    /// (`parse`, `build`, `check`): what `cmmc check --profile` reports.
    pub fn frontend_metered(
        &self,
        src: &str,
    ) -> Result<(cmm_ast::Program, CompileMetrics), CompileError> {
        let mut m = self.fresh_metrics();
        let (ast, _) = self.frontend_checked(src, Some(&mut m))?;
        Ok((ast, m))
    }

    fn fresh_metrics(&self) -> CompileMetrics {
        CompileMetrics {
            parser_cache: self.cache.stats(),
            ..CompileMetrics::default()
        }
    }

    /// Front half of the pipeline, keeping the type information so the
    /// back half need not re-run the checker. When `metrics` is given,
    /// each pass is timed into it: `parse` is source to AST (the parser
    /// builds the AST as it reduces), `build` what remains once the parse
    /// has accepted — surfacing a held-back construction error.
    fn frontend_checked(
        &self,
        src: &str,
        mut metrics: Option<&mut CompileMetrics>,
    ) -> Result<(cmm_ast::Program, TypeInfo), CompileError> {
        let mut timed = |name: &'static str, items: u64, unit: &'static str, t0: Instant| {
            if let Some(m) = metrics.as_deref_mut() {
                m.passes.push(PassTiming {
                    name,
                    nanos: t0.elapsed().as_nanos() as u64,
                    items,
                    unit,
                });
            }
        };
        let t0 = Instant::now();
        let built = parse_program(self.parser(), self.handlers(), src)
            .map_err(|e| CompileError::Parse(e.to_string()))?;
        timed("parse", src.len() as u64, "bytes", t0);
        let t0 = Instant::now();
        let ast = built.map_err(|e| CompileError::Build(e.to_string()))?;
        timed("build", ast.functions.len() as u64, "functions", t0);
        let t0 = Instant::now();
        let (info, diags) = check_program(&ast, self.extensions());
        timed("check", ast.functions.len() as u64, "functions", t0);
        let errors: Vec<Diag> = diags
            .into_iter()
            .filter(|d| d.severity == cmm_ast::Severity::Error)
            .collect();
        if !errors.is_empty() {
            return Err(CompileError::Type(errors));
        }
        Ok((ast, info))
    }

    /// Full translation to the loop IR: [`Compiler::translate`] without
    /// the emitter, keeping every function's IR (the tuner's and the
    /// fuzzer's path; the run paths keep only bytecode).
    pub fn compile(&self, src: &str) -> Result<IrProgram, CompileError> {
        let mut functions = Vec::new();
        self.translate(src, None, Keep::Ir(&mut functions), None)?;
        Ok(IrProgram { functions })
    }

    /// [`Compiler::compile`] with per-pass wall times and work-item
    /// counts. The C emitter runs too (output discarded) so the full
    /// pipeline of the paper — parse through emit — is accounted.
    pub fn compile_metered(&self, src: &str) -> Result<(IrProgram, CompileMetrics), CompileError> {
        let mut m = self.fresh_metrics();
        let mut functions = Vec::new();
        let mut emitter = Emitter::default();
        self.translate(src, Some(&mut m), Keep::Ir(&mut functions), Some(&mut emitter))?;
        Ok((IrProgram { functions }, m))
    }

    /// Translate straight to bytecode, one function at a time: no
    /// function's IR or resolved form outlives its compilation. The run
    /// path's compile. With `metrics`, the passes are timed as by
    /// [`Compiler::compile_metered`], the emitter included.
    fn bytecode(
        &self,
        src: &str,
        metrics: Option<&mut CompileMetrics>,
    ) -> Result<Bytecode, CompileError> {
        let mut builder = BytecodeBuilder::new();
        let mut emitter = metrics.is_some().then(Emitter::default);
        self.translate(src, metrics, Keep::Bytecode(&mut builder), emitter.as_mut())?;
        Ok(builder.finish())
    }

    /// Translate to plain parallel C — the paper's output artifact.
    pub fn compile_to_c(&self, src: &str) -> Result<String, CompileError> {
        let (emitter, front_end) = self.emitter(src)?;
        drop(front_end);
        Ok(emitter.finish())
    }

    /// [`Compiler::compile_to_c`] with the six pass timings of
    /// [`Compiler::compile_metered`].
    pub fn compile_to_c_metered(
        &self,
        src: &str,
    ) -> Result<(String, CompileMetrics), CompileError> {
        let (emitter, m, front_end) = self.emitter_metered(src)?;
        drop(front_end);
        Ok((emitter.finish(), m))
    }

    /// Translate to C, holding the translation unit in the parts that
    /// [`Emitter::write_to`] writes without joining them: what `cmmc emit`
    /// writes. The front end's result comes back too, for the caller to
    /// drop or to leave to the process's exit.
    pub fn emitter(&self, src: &str) -> Result<(Emitter, FrontEnd), CompileError> {
        let mut emitter = Emitter::default();
        let front_end = self.translate(src, None, Keep::Nothing, Some(&mut emitter))?;
        Ok((emitter, front_end))
    }

    /// [`Compiler::emitter`] with the six pass timings of
    /// [`Compiler::compile_metered`]: what `cmmc emit --profile` reports.
    pub fn emitter_metered(
        &self,
        src: &str,
    ) -> Result<(Emitter, CompileMetrics, FrontEnd), CompileError> {
        let mut m = self.fresh_metrics();
        let mut emitter = Emitter::default();
        let front_end = self.translate(src, Some(&mut m), Keep::Nothing, Some(&mut emitter))?;
        Ok((emitter, m, front_end))
    }

    /// Every translation, in order: the front end; the optimize pass,
    /// which rewrites the AST in place; lowering, one function at a time;
    /// emission of each function into `emitter` when the caller passes
    /// one; and then what `keep` says: each function's IR is dropped, or
    /// collected, or compiled to bytecode and dropped. With `metrics`, the
    /// passes are timed, `lower` and `emit` as sums over the functions. A
    /// lowering error wins over an earlier function's emit error, so
    /// lowering goes on after the first emit error; it wins over a
    /// bytecode limit too, which only a run reports. Returns the front
    /// end's result.
    fn translate(
        &self,
        src: &str,
        mut metrics: Option<&mut CompileMetrics>,
        mut keep: Keep<'_>,
        mut emitter: Option<&mut Emitter>,
    ) -> Result<FrontEnd, CompileError> {
        let (mut ast, info) = self.frontend_checked(src, metrics.as_deref_mut())?;
        // No clock is read unless the caller asked for timings.
        let timed = metrics.is_some();
        let start = || timed.then(Instant::now);
        let nanos = |t0: Option<Instant>| t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let t0 = start();
        let fusions = if self.options.fuse_slice_index {
            fuse_slice_indices(&mut ast)
        } else {
            0
        };
        let optimize_nanos = nanos(t0);
        let mut emit_error = None;
        let (mut lower_nanos, mut emit_nanos, mut stmts) = (0, 0, 0);
        let mut lowering = lower_functions(&ast, &info, &self.options);
        // Bytecode indexes user functions in source order, then the
        // functions lifted out of their `matrixMap`s in lifting order.
        let mut lifted = 0;
        if let Keep::Bytecode(builder) = &mut keep {
            for f in &ast.functions {
                builder.declare(&Name::from(f.name.as_str()));
            }
        }
        loop {
            let t0 = start();
            let Some(f) = lowering.next() else { break };
            let f = f.map_err(CompileError::Lower)?;
            if timed {
                lower_nanos += nanos(t0);
                stmts += stmt_count(&f.body);
            }
            if let (Some(emitter), None) = (emitter.as_deref_mut(), &emit_error) {
                let t0 = start();
                emit_error = emitter.function(&f).err();
                emit_nanos += nanos(t0);
            }
            match &mut keep {
                Keep::Nothing => {}
                Keep::Ir(functions) => functions.push(f),
                Keep::Bytecode(builder) => {
                    for name in lowering.lifted_names().skip(lifted) {
                        builder.declare(name);
                        lifted += 1;
                    }
                    builder.function(f);
                }
            }
        }
        if let Some(e) = emit_error {
            return Err(CompileError::Emit(e));
        }
        if let Some(m) = metrics {
            m.passes.extend([
                PassTiming {
                    name: "optimize",
                    nanos: optimize_nanos,
                    items: fusions as u64,
                    unit: "fusions",
                },
                PassTiming {
                    name: "lower",
                    nanos: lower_nanos,
                    items: stmts,
                    unit: "stmts",
                },
                PassTiming {
                    name: "emit",
                    nanos: emit_nanos,
                    items: emitter.map_or(0, |e| e.byte_len() as u64),
                    unit: "bytes",
                },
            ]);
        }
        Ok((ast, info))
    }

    /// Compile and execute on the interpreter with `threads` pool
    /// threads (the command-line thread-count argument of §III-C).
    pub fn run(&self, src: &str, threads: usize) -> Result<RunResult, CompileError> {
        self.run_with_limits(src, threads, Limits::default())
    }

    /// [`Compiler::run`] under resource budgets: the interpreter meters
    /// every statement, loop iteration, and matrix allocation against
    /// `limits`, and an exceeded budget maps to [`CompileError::Limit`]
    /// so callers (the `cmmc` CLI) can report it distinctly.
    pub fn run_with_limits(
        &self,
        src: &str,
        threads: usize,
        limits: Limits,
    ) -> Result<RunResult, CompileError> {
        self.run_with_schedule(src, threads, limits, Schedule::Static)
    }

    /// [`Compiler::run_with_limits`] with an explicit process-default
    /// loop schedule (the `cmmc run --schedule` argument). Parallel loops
    /// without a per-loop `schedule(...)` directive self-schedule under
    /// `schedule`; `Schedule::Static` reproduces the classic one-chunk-
    /// per-participant partition.
    pub fn run_with_schedule(
        &self,
        src: &str,
        threads: usize,
        limits: Limits,
        schedule: Schedule,
    ) -> Result<RunResult, CompileError> {
        self.run_keeping_output(src, threads, limits, schedule)
            .map_err(|failure| failure.error)
    }

    /// [`Compiler::run_with_schedule`] that keeps, on a failed run, what
    /// the program printed before it failed (`cmmc run` prints it, as
    /// the gcc-built program does).
    pub fn run_keeping_output(
        &self,
        src: &str,
        threads: usize,
        limits: Limits,
        schedule: Schedule,
    ) -> Result<RunResult, RunFailure> {
        let code = self
            .bytecode(src, None)
            .map_err(|error| RunFailure { error, output: String::new() })?;
        let interp = Interp::from_bytecode(code, threads)
            .with_schedule(schedule)
            .with_limits(limits);
        run_outcome(&interp, interp.run_main())
    }

    /// [`Compiler::run_with_schedule`] on a caller-supplied pool. This is
    /// the `cmmc serve` execution path: the daemon creates one pool per
    /// session so it can inspect pool health afterwards (degraded spawn
    /// counts, recovered panics) and so one tenant's pool state never
    /// leaks into another's run.
    pub fn run_on_pool(
        &self,
        src: &str,
        pool: Arc<ForkJoinPool>,
        limits: Limits,
        schedule: Schedule,
    ) -> Result<RunResult, CompileError> {
        let code = self.bytecode(src, None)?;
        let interp = Interp::from_bytecode_with_pool(code, pool)
            .with_schedule(schedule)
            .with_limits(limits);
        run_outcome(&interp, interp.run_main()).map_err(|failure| failure.error)
    }

    /// Deterministic loop-cost probe (the `cmm-tune` measurement mode):
    /// compile and execute on the VM with [`Interp::with_cost_probe`]
    /// enabled — parallel loops run sequentially on the calling thread
    /// and record per-iteration fuel. Returns the run
    /// result, the per-loop cost records, and the total fuel consumed.
    /// Everything returned is a pure function of `(src, limits)`.
    pub fn run_cost_probe(
        &self,
        src: &str,
        limits: Limits,
    ) -> Result<(RunResult, Vec<LoopCost>, u64), CompileError> {
        let code = self.bytecode(src, None)?;
        let interp = Interp::from_bytecode(code, 1)
            .with_limits(limits)
            .with_cost_probe(true);
        let result = run_outcome(&interp, interp.run_main()).map_err(|failure| failure.error)?;
        Ok((result, interp.loop_costs(), interp.steps_used()))
    }

    /// [`Compiler::run_with_limits`] with full observability: compile
    /// passes are timed, the fork-join pool meters its regions, the
    /// interpreter collects an execution profile, and `cmm-rc` pool
    /// activity is reported as a per-run delta. The metered pipeline is
    /// the same code as the unmetered one — profiling changes what is
    /// recorded, never what executes.
    pub fn run_profiled(
        &self,
        src: &str,
        threads: usize,
        limits: Limits,
    ) -> Result<(RunResult, ProfileReport), CompileError> {
        self.run_profiled_scheduled(src, threads, limits, Schedule::Static)
    }

    /// [`Compiler::run_profiled`] with an explicit process-default loop
    /// schedule; the report's pool section then includes the chunk-claim
    /// telemetry (`chunks_issued` / `chunks_taken`) of the self-scheduler.
    pub fn run_profiled_scheduled(
        &self,
        src: &str,
        threads: usize,
        limits: Limits,
        schedule: Schedule,
    ) -> Result<(RunResult, ProfileReport), CompileError> {
        let (outcome, report) = self.run_profiled_outcome(src, threads, limits, schedule)?;
        Ok((outcome.map_err(|failure| failure.error)?, report))
    }

    /// [`Compiler::run_profiled_scheduled`] that hands the report back
    /// whether or not the run succeeded: a program stopped by a limit or a
    /// runtime error is the one whose profile says where the steps went.
    /// The outer error is a compile failure, before which there is nothing
    /// to report.
    pub fn run_profiled_outcome(
        &self,
        src: &str,
        threads: usize,
        limits: Limits,
        schedule: Schedule,
    ) -> Result<(Result<RunResult, RunFailure>, ProfileReport), CompileError> {
        let rc_before = cmm_rc::pool_stats();
        let mut compile = self.fresh_metrics();
        let code = self.bytecode(src, Some(&mut compile))?;
        let pool = Arc::new(ForkJoinPool::new(threads));
        pool.set_metrics_enabled(true);
        let interp = Interp::from_bytecode_with_pool(code, Arc::clone(&pool))
            .with_schedule(schedule)
            .with_limits(limits)
            .with_profiling(true);
        let outcome = run_outcome(&interp, interp.run_main());
        let rc_after = cmm_rc::pool_stats();
        let report = ProfileReport {
            compile,
            pool: Some(pool.metrics()),
            interp: Some(interp.profile()),
            rc: cmm_rc::PoolStats {
                hits: rc_after.hits.saturating_sub(rc_before.hits),
                misses: rc_after.misses.saturating_sub(rc_before.misses),
                recycled: rc_after.recycled.saturating_sub(rc_before.recycled),
            },
            threads: pool.threads(),
        };
        Ok((outcome, report))
    }
}

/// A run that stopped at a compile error, a runtime error or a limit,
/// with what the program printed before it stopped.
#[derive(Debug)]
pub struct RunFailure {
    pub error: CompileError,
    pub output: String,
}

/// What `interp`'s finished `run_main` leaves: the run's result, or its
/// error with the output printed before it.
fn run_outcome<T>(interp: &Interp, ran: Result<T, InterpError>) -> Result<RunResult, RunFailure> {
    match ran {
        Ok(_) => Ok(RunResult {
            output: interp.output(),
            allocations: interp.alloc_count(),
            leaked: interp.live_buffers(),
            steps_used: interp.steps_used(),
        }),
        Err(e) => Err(RunFailure { error: map_interp_error(e), output: interp.output() }),
    }
}

fn map_interp_error(e: InterpError) -> CompileError {
    match e.kind {
        cmm_loopir::InterpErrorKind::LimitExceeded(kind) => CompileError::Limit {
            kind,
            message: e.to_string(),
        },
        cmm_loopir::InterpErrorKind::WorkerPanic => CompileError::Panic(e.message),
        cmm_loopir::InterpErrorKind::Runtime => CompileError::Runtime(e.to_string()),
        cmm_loopir::InterpErrorKind::VmLimit => CompileError::VmLimit(e.message),
    }
}

/// Statement count of a function body (all nesting levels) — the
/// work-item metric for the lowering pass.
fn stmt_count(stmts: &[IrStmt]) -> u64 {
    stmts
        .iter()
        .map(|s| match s {
            // A kernel op counts as the nest it stands for.
            IrStmt::Kernel { fallback, .. } => stmt_count(fallback),
            IrStmt::For(f) => 1 + stmt_count(&f.body),
            IrStmt::While { body, .. } => 1 + stmt_count(body),
            IrStmt::If { then_b, else_b, .. } => 1 + stmt_count(then_b) + stmt_count(else_b),
            IrStmt::Block(b) => 1 + stmt_count(b),
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests;
