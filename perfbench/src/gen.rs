//! Seeded IL program generator.
//!
//! Three families, in equal shares, mixed by [`program`]:
//!
//! * **corpus** — a built-in corpus program with every identifier renamed
//!   and every real literal replaced. Verdicts and reason codes must match
//!   the original's, which the benchmark checks.
//! * **chase** — loop-based pointer idioms in the style of "Iterating
//!   Pointers": a cursor chasing a one-way list, a two-way list, an
//!   orthogonal list or a binary tree, with or without an ADDS declaration.
//!   Bodies mix cursor writes, lookahead reads and writes through the
//!   chased field, carried scalars, pointer mutations, helper calls and
//!   inner chases.
//! * **wide** — straight-line programs over 10 to [`WIDE_MAX_VARS`] pointer
//!   variables. Path-matrix cost grows roughly as n³ in pointer variables,
//!   so this family sets the tail of cold analysis.
//!
//! Every program embeds a nonce derived from its index, so two indices never
//! yield the same bytes, and one `(seed, index)` always yields the same
//! bytes.

use adds_lang::token::TokenKind;
use adds_serve::corpus::CorpusEntry;
use std::fmt::Write as _;

/// Upper bound on the pointer variables of a wide program (parameters plus
/// locals). At 60 a cold analysis stays near 100 ms.
pub const WIDE_MAX_VARS: usize = 60;
/// Lower bound on the pointer variables of a wide program.
pub const WIDE_MIN_VARS: usize = 10;

/// Program family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    Corpus,
    Chase,
    Wide,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Corpus => "corpus",
            Family::Chase => "chase",
            Family::Wide => "wide",
        }
    }
}

/// One generated program.
#[derive(Clone, Debug)]
pub struct Program {
    pub family: Family,
    pub source: String,
    /// For the corpus family, the name of the program it renames.
    pub original: Option<&'static str>,
    /// Pointer-typed parameters and locals, summed over functions.
    pub pointer_vars: usize,
}

/// splitmix64: a small, fast, well-mixed generator. Benchmark inputs only
/// need to be reproducible, not cryptographic.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream`, item `index` of `seed`: items are
    /// independent of how many were drawn before them.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let a = r.next_u64();
        Rng(a ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

const STREAM_PROGRAM: u64 = 1;
const STREAM_CORPUS: u64 = 2;
const STREAM_WIDTH: u64 = 3;
const STREAM_SETUP: u64 = 4;

/// The families in stream order: program `index` belongs to
/// `FAMILIES[index % 3]`. The benchmark names three families and gives
/// none more weight, so each takes a third of the programs, interleaved so
/// that every stretch of the stream has the same mix.
pub const FAMILIES: [Family; 3] = [Family::Corpus, Family::Chase, Family::Wide];

/// Pointer variables of [`setup_program`].
pub const SETUP_VARS: usize = 56;

/// Family of the `index`-th program of every stream.
pub fn family(index: u64) -> Family {
    FAMILIES[(index % FAMILIES.len() as u64) as usize]
}

/// The `index`-th program of `seed`'s stream.
///
/// The mix is stratified so that runs with different seeds see the same
/// cost distribution: families follow [`FAMILIES`], the corpus family
/// walks the corpus in seeded permutations, and the wide family walks every
/// width from [`WIDE_MIN_VARS`] to [`WIDE_MAX_VARS`] in seeded
/// permutations. Everything else (identifiers, literals, shapes, bodies,
/// statements) is drawn from the seed.
pub fn program(seed: u64, index: u64) -> Program {
    // The family's own program count before this one.
    let k = index / FAMILIES.len() as u64;
    let mut rng = Rng::derive(seed, STREAM_PROGRAM, index);
    let nonce = nonce(index);
    match family(index) {
        Family::Corpus => {
            let entries = adds_serve::corpus::CORPUS;
            let entry = &entries[stratified(seed, STREAM_CORPUS, k, entries.len())];
            corpus_program(entry, &mut rng, &nonce)
        }
        Family::Chase => chase_program(&mut rng, &nonce),
        Family::Wide => {
            let widths = WIDE_MAX_VARS - WIDE_MIN_VARS + 1;
            let n = WIDE_MIN_VARS + stratified(seed, STREAM_WIDTH, k, widths);
            wide_program(&mut rng, &nonce, n)
        }
    }
}

/// A fixed wide program over [`SETUP_VARS`] pointer variables, the same
/// for every seed. Its nonce holds an `_`, which no stream nonce does, so
/// no stream program shares its bytes.
pub fn setup_program() -> Program {
    wide_program(&mut Rng::derive(0, STREAM_SETUP, 0), "set_up", SETUP_VARS)
}

/// Item `k` of an endless sequence of seeded permutations of `0..n`: every
/// aligned block of `n` items holds each value once.
pub fn stratified(seed: u64, stream: u64, k: u64, n: usize) -> usize {
    let mut rng = Rng::derive(seed, stream, k / n as u64);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm[(k % n as u64) as usize]
}

/// A short identifier-safe tag unique to `index` (base 36).
fn nonce(index: u64) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut n = index;
    let mut out = Vec::new();
    loop {
        out.push(DIGITS[(n % 36) as usize]);
        n /= 36;
        if n == 0 {
            break;
        }
    }
    out.reverse();
    String::from_utf8(out).expect("ascii digits")
}

/// The built-in corpus, by name.
pub fn corpus() -> impl Iterator<Item = (&'static str, &'static str)> {
    adds_serve::corpus::CORPUS
        .iter()
        .map(|e| (e.name, e.source))
}

fn corpus_program(entry: &'static CorpusEntry, rng: &mut Rng, nonce: &str) -> Program {
    let source = rename(entry.source, nonce, rng);
    let pointer_vars = count_pointer_vars(&source);
    Program {
        family: Family::Corpus,
        source,
        original: Some(entry.name),
        pointer_vars,
    }
}

/// Rename every identifier of `src` (except intrinsics) by appending
/// `_{nonce}`, and replace every real literal with a fresh one. Operates on
/// the token stream, so comments and layout survive byte for byte.
fn rename(src: &str, nonce: &str, rng: &mut Rng) -> String {
    let tokens = adds_lang::lexer::lex(src).expect("corpus programs lex");
    let mut out = String::with_capacity(src.len() + src.len() / 4);
    let mut at = 0usize;
    for t in &tokens {
        let (start, end) = (t.span.start as usize, t.span.end as usize);
        let replacement = match &t.kind {
            TokenKind::Ident(name)
                if adds_lang::types::intrinsic_sig(name).is_none() && name != "print" =>
            {
                Some(format!("{name}_{nonce}"))
            }
            TokenKind::Real(_) => Some(format!("{}.{:03}", rng.below(10), rng.range(1, 999))),
            _ => None,
        };
        if let Some(r) = replacement {
            out.push_str(&src[at..start]);
            out.push_str(&r);
            at = end;
        }
    }
    out.push_str(&src[at..]);
    out
}

/// Pointer variables of a program: pointer-typed parameters and `var`s.
pub fn count_pointer_vars(src: &str) -> usize {
    let Ok(program) = adds_lang::parse_program(src) else {
        return 0;
    };
    program
        .funcs
        .iter()
        .map(|f| {
            let params = f.params.iter().filter(|p| p.ty.is_pointer()).count();
            let locals = f
                .body
                .stmts
                .iter()
                .filter(|s| {
                    matches!(s, adds_lang::ast::Stmt::VarDecl { ty: Some(t), .. } if t.is_pointer())
                })
                .count();
            params + locals
        })
        .sum()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    OneWay,
    TwoWay,
    Orth,
    Tree,
}

/// One shape's record declaration and the fields a loop may chase.
struct Decl {
    shape: Shape,
    ty: String,
    /// Field a cursor advances along.
    chase: &'static str,
    /// A second pointer field (two-way `prev`, orth `across`, tree `right`).
    other: Option<&'static str>,
}

impl Decl {
    fn render(&self, declared: bool) -> String {
        let t = &self.ty;
        let (dims, fields) = match (self.shape, declared) {
            (Shape::OneWay, true) => (
                " [X]",
                format!("    {t} *next is uniquely forward along X;\n"),
            ),
            (Shape::OneWay, false) => ("", format!("    {t} *next;\n")),
            (Shape::TwoWay, true) => (
                " [X]",
                format!(
                    "    {t} *next is uniquely forward along X;\n    {t} *prev is backward along X;\n"
                ),
            ),
            (Shape::TwoWay, false) => ("", format!("    {t} *next;\n    {t} *prev;\n")),
            (Shape::Orth, true) => (
                " [X] [Y] where X||Y",
                format!(
                    "    {t} *across is uniquely forward along X;\n    {t} *down is uniquely forward along Y;\n"
                ),
            ),
            (Shape::Orth, false) => ("", format!("    {t} *across;\n    {t} *down;\n")),
            (Shape::Tree, true) => (
                " [down]",
                format!("    {t} *left, *right is uniquely forward along down;\n"),
            ),
            (Shape::Tree, false) => ("", format!("    {t} *left, *right;\n")),
        };
        format!("type {t}{dims}\n{{\n    int v, w;\n{fields}}};\n")
    }
}

fn chase_program(rng: &mut Rng, nonce: &str) -> Program {
    let shape = *rng.pick(&[Shape::OneWay, Shape::TwoWay, Shape::Orth, Shape::Tree]);
    let ty = format!("{}_{nonce}", rng.pick(&["Node", "Cell", "Elem", "Item"]));
    let (chase, other) = match shape {
        Shape::OneWay => ("next", None),
        Shape::TwoWay => ("next", Some("prev")),
        Shape::Orth => *rng.pick(&[("down", Some("across")), ("across", Some("down"))]),
        Shape::Tree => *rng.pick(&[("left", Some("right")), ("right", Some("left"))]),
    };
    let decl = Decl {
        shape,
        ty,
        chase,
        other,
    };
    let declared = rng.chance(0.7);
    let mut src = decl.render(declared);
    let helper = format!("touch_{nonce}");
    let with_helper = rng.chance(0.4);
    if with_helper {
        let t = &decl.ty;
        let _ = write!(
            src,
            "\nprocedure {helper}(n: {t}*, c: int)\n{{\n    n->v = n->v * c;\n    n->w = n->w + 1;\n}}\n"
        );
    }
    let loops = rng.range(1, 3);
    let mut pointer_vars = usize::from(with_helper);
    for k in 0..loops {
        let (text, ptrs) = chase_function(
            rng,
            &decl,
            &format!("walk{k}_{nonce}"),
            with_helper.then_some(helper.as_str()),
        );
        src.push('\n');
        src.push_str(&text);
        pointer_vars += ptrs;
    }
    Program {
        family: Family::Chase,
        source: src,
        original: None,
        pointer_vars,
    }
}

/// One procedure or function holding a single chase loop. Returns the text
/// and its pointer-variable count.
fn chase_function(rng: &mut Rng, d: &Decl, name: &str, helper: Option<&str>) -> (String, usize) {
    let t = &d.ty;
    let f = d.chase;
    let carried = rng.chance(0.3);
    let trail = d.shape == Shape::TwoWay && rng.chance(0.4);
    let inner = rng.chance(0.3);
    let mut body: Vec<String> = Vec::new();
    let n_ops = rng.range(1, 3);
    for _ in 0..n_ops {
        let op = match rng.below(6) {
            0 => "p->v = p->v * c;".to_string(),
            1 => "p->w = p->v + c;".to_string(),
            2 => format!("if p->{f} <> NULL {{ p->v = p->v + p->{f}->w; }}"),
            3 => format!("if p->{f} <> NULL {{ p->{f}->w = p->v; }}"),
            4 => match (d.other, helper) {
                (_, Some(h)) => format!("{h}(p, c);"),
                (Some(o), None) => format!("if p->{o} <> NULL {{ p->{o}->v = c; }}"),
                (None, None) => "p->v = p->w;".to_string(),
            },
            _ => match d.other {
                Some(o) if d.shape != Shape::TwoWay => format!("p->{o} = NULL;"),
                _ => "p->w = p->w - 1;".to_string(),
            },
        };
        body.push(op);
    }
    if carried {
        body.push("s = s + p->v;".to_string());
    }
    if inner {
        let along = match (d.shape, d.other) {
            (Shape::Orth, Some(o)) => o,
            _ => f,
        };
        let start = if along == f {
            format!("p->{f}")
        } else {
            "p".to_string()
        };
        body.push(format!(
            "q = {start};\n        while q <> NULL\n        {{\n            q->w = q->w + p->v;\n            q = q->{along};\n        }}"
        ));
    }
    if trail {
        body.push("p->prev = r;".to_string());
        body.push("r = p;".to_string());
    }
    body.push(format!("p = p->{f};"));

    let mut out = String::new();
    let mut ptrs = 2; // head, p
    if carried {
        let _ = writeln!(out, "function {name}(head: {t}*, c: int): int\n{{");
    } else {
        let _ = writeln!(out, "procedure {name}(head: {t}*, c: int)\n{{");
    }
    out.push_str(&format!("    var p: {t}*;\n"));
    if inner {
        out.push_str(&format!("    var q: {t}*;\n"));
        ptrs += 1;
    }
    if trail {
        out.push_str(&format!("    var r: {t}*;\n"));
        ptrs += 1;
    }
    if carried {
        out.push_str("    var s: int;\n    s = 0;\n");
    }
    if trail {
        out.push_str("    r = NULL;\n");
    }
    out.push_str("    p = head;\n    while p <> NULL\n    {\n");
    for line in &body {
        let _ = writeln!(out, "        {line}");
    }
    out.push_str("    }\n");
    if carried {
        out.push_str("    return s;\n");
    }
    out.push_str("}\n");
    (out, ptrs)
}

/// A straight-line program over `n` pointer variables: two parameters and
/// `n - 2` locals, with one statement per variable.
pub fn wide_program(rng: &mut Rng, nonce: &str, n: usize) -> Program {
    let t = format!("W_{nonce}");
    let var = |i: usize| format!("x{i}");
    let mut src = format!(
        "type {t} [X]\n{{\n    int v;\n    {t} *next is uniquely forward along X;\n}};\n\nprocedure wide_{nonce}(x0: {t}*, x1: {t}*)\n{{\n"
    );
    for i in 2..n {
        let _ = writeln!(src, "    var {}: {t}*;", var(i));
    }
    for i in 2..n {
        let _ = writeln!(src, "    {} = NULL;", var(i));
    }
    for _ in 0..n {
        let x = var(rng.below(n));
        let y = var(rng.below(n));
        let line = match rng.below(20) {
            0..=4 => format!("{x} = {y};"),
            5..=9 => format!("if {y} <> NULL {{ {x} = {y}->next; }}"),
            10..=12 => format!("if {x} <> NULL {{ {x}->next = {y}; }}"),
            13..=16 => format!("{x} = new {t};"),
            _ => format!("{x} = NULL;"),
        };
        let _ = writeln!(src, "    {line}");
    }
    src.push_str("}\n");
    Program {
        family: Family::Wide,
        source: src,
        original: None,
        pointer_vars: n,
    }
}
