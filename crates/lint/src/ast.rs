//! A lightweight Rust AST for the semantic lint passes.
//!
//! [`parse`] runs a dependency-free recursive-descent parser over the
//! [`crate::lexer`] token stream and produces just enough structure for
//! the passes in [`crate::semantic`]: the item tree (functions, modules,
//! impl blocks), per-function attribute lists (`#[test]`, `#[cfg(test)]`),
//! and a flat list of [`MethodCall`]s per function body, each with its
//! turbofish generics, the head of its first argument, its source line and
//! its index into the token stream so a pass can inspect the surrounding
//! statement.
//!
//! The parser is deliberately *error-tolerant*: it never panics, and on
//! constructs it does not model (trait bodies, `macro_rules!`, exotic
//! generics) it skips balanced token groups rather than failing the file.
//! That is the right trade for a linter — a pass that sees 99% of the
//! bodies with zero build dependencies beats a full grammar it cannot
//! afford. The known blind spots are listed on [`parse`].

use crate::lexer::{LexedFile, Token, TokenKind};

/// A parsed source file: the top-level item tree.
#[derive(Debug, Default)]
pub struct File {
    /// Items in source order.
    pub items: Vec<Item>,
}

/// One attribute (`#[...]`), reduced to the identifiers it contains —
/// enough to recognise `#[test]`, `#[cfg(test)]`, `#[inline]` et al.
#[derive(Debug, Clone)]
pub struct Attr {
    /// 1-based line of the `#`.
    pub line: usize,
    /// Identifiers inside the brackets, in order.
    pub idents: Vec<String>,
}

impl Attr {
    /// Whether the attribute mentions `name` anywhere (`cfg(test)` →
    /// `has("test")` is true).
    pub fn has(&self, name: &str) -> bool {
        self.idents.iter().any(|i| i == name)
    }
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function with a parsed body.
    Fn(FnItem),
    /// An inline module (`mod m { ... }`); leaf declarations (`mod m;`)
    /// become [`Item::Other`].
    Mod(ModItem),
    /// An `impl` block; its functions are parsed like any others.
    Impl(ImplItem),
    /// Anything else (struct, enum, use, const, trait, ...), skipped as a
    /// balanced token group.
    Other {
        /// The introducing keyword (`struct`, `trait`, ...).
        kind: String,
        /// 1-based line.
        line: usize,
    },
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is `pub` (any visibility qualifier).
    pub is_pub: bool,
    /// Attributes directly on the function.
    pub attrs: Vec<Attr>,
    /// Method calls in the body, in source order (empty for bodyless
    /// signatures).
    pub calls: Vec<MethodCall>,
    /// Token range of the body in `LexedFile::tokens`, exclusive of the
    /// braces; `None` for bodyless signatures.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// Whether this is a `#[test]` function.
    pub fn is_test(&self) -> bool {
        self.attrs.iter().any(|a| a.has("test"))
    }
}

/// An inline module.
#[derive(Debug)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// 1-based line of the `mod` keyword.
    pub line: usize,
    /// Attributes directly on the module.
    pub attrs: Vec<Attr>,
    /// Nested items.
    pub items: Vec<Item>,
}

impl ModItem {
    /// Whether the module is `#[cfg(test)]`.
    pub fn is_cfg_test(&self) -> bool {
        self.attrs.iter().any(|a| a.has("cfg") && a.has("test"))
    }
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// Nested items (mostly functions).
    pub items: Vec<Item>,
}

/// The head of a call argument — the first token after the opening `(`.
/// Enough for the float-reduction pass to classify `fold(0.0, ...)` vs
/// `fold(String::new(), ...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgHead {
    /// A numeric literal, verbatim.
    Num(String),
    /// An identifier (`f32::NEG_INFINITY` yields `f32`).
    Ident(String),
    /// Anything else (string, punctuation, closing paren).
    Other,
}

/// A method call `.name(...)` or `.name::<T>(...)` inside a function body.
#[derive(Debug, Clone)]
pub struct MethodCall {
    /// Method name.
    pub name: String,
    /// Turbofish generic identifiers, if any (`sum::<f32>()` → `["f32"]`).
    pub generics: Vec<String>,
    /// Head of the first argument (`None` for `()`).
    pub first_arg: Option<ArgHead>,
    /// 1-based line.
    pub line: usize,
    /// Index of the method-name token in `LexedFile::tokens`.
    pub tok: usize,
}

/// Run `f` over every function in the file, with `in_test` true when the
/// function is `#[test]` or lives under a `#[cfg(test)]` module.
pub fn walk_fns(file: &File, mut f: impl FnMut(&FnItem, bool)) {
    fn go(items: &[Item], in_test: bool, f: &mut impl FnMut(&FnItem, bool)) {
        for item in items {
            match item {
                Item::Fn(func) => f(func, in_test || func.is_test()),
                Item::Mod(m) => go(&m.items, in_test || m.is_cfg_test(), f),
                Item::Impl(i) => go(&i.items, in_test, f),
                Item::Other { .. } => {}
            }
        }
    }
    go(&file.items, false, &mut f);
}

/// Parse a lexed file into an item tree.
///
/// Known blind spots, all harmless for the current passes: default method
/// bodies inside `trait` blocks are skipped (traits in this workspace
/// declare signatures only), `macro_rules!` definitions are skipped, and
/// expressions inside skipped items (e.g. a `const` initialiser) produce
/// no calls.
pub fn parse(lexed: &LexedFile) -> File {
    let mut p = Parser {
        toks: &lexed.tokens,
        i: 0,
    };
    File {
        items: p.items(true),
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
}

/// Identifiers that introduce an item skipped as a balanced group.
const SKIPPED_ITEMS: &[&str] = &[
    "struct", "enum", "union", "trait", "use", "type", "static", "const", "extern",
    "macro_rules",
];

impl<'a> Parser<'a> {
    fn kind(&self, at: usize) -> Option<&'a TokenKind> {
        self.toks.get(at).map(|t| &t.kind)
    }

    fn line(&self, at: usize) -> usize {
        self.toks.get(at).map(|t| t.line).unwrap_or(0)
    }

    fn is_punct(&self, at: usize, c: char) -> bool {
        matches!(self.kind(at), Some(TokenKind::Punct(p)) if *p == c)
    }

    fn ident(&self, at: usize) -> Option<&'a str> {
        match self.kind(at) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Parse items until end of input, or (when `top` is false) until the
    /// `}` closing the enclosing block, which is left for the caller.
    fn items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut attrs: Vec<Attr> = Vec::new();
        let mut is_pub = false;
        while let Some(kind) = self.kind(self.i) {
            match kind {
                TokenKind::Punct('}') if !top => break,
                TokenKind::Punct('#') => {
                    if let Some(a) = self.attr() {
                        attrs.push(a);
                    }
                }
                TokenKind::Ident(s) => match s.as_str() {
                    "pub" => {
                        is_pub = true;
                        self.i += 1;
                        // pub(crate) / pub(in path)
                        if self.is_punct(self.i, '(') {
                            self.skip_balanced('(', ')');
                        }
                    }
                    // Qualifiers that may precede `fn` — keep attrs pending.
                    "unsafe" | "async" => {
                        self.i += 1;
                    }
                    "const" if self.ident(self.i + 1) == Some("fn") => {
                        self.i += 1;
                    }
                    "fn" => {
                        let func = self.fn_item(std::mem::take(&mut attrs), is_pub);
                        is_pub = false;
                        items.push(Item::Fn(func));
                    }
                    "mod" => {
                        let m = self.mod_item(std::mem::take(&mut attrs));
                        is_pub = false;
                        items.push(m);
                    }
                    "impl" => {
                        let line = self.line(self.i);
                        self.i += 1;
                        // Skip to the block opener at paren depth 0.
                        let mut paren = 0i32;
                        while let Some(k) = self.kind(self.i) {
                            match k {
                                TokenKind::Punct('(') => paren += 1,
                                TokenKind::Punct(')') => paren -= 1,
                                TokenKind::Punct('{') if paren == 0 => break,
                                TokenKind::Punct(';') if paren == 0 => break,
                                _ => {}
                            }
                            self.i += 1;
                        }
                        if self.is_punct(self.i, '{') {
                            self.i += 1;
                            let inner = self.items(false);
                            if self.is_punct(self.i, '}') {
                                self.i += 1;
                            }
                            items.push(Item::Impl(ImplItem { line, items: inner }));
                        } else {
                            self.i += 1;
                            items.push(Item::Other {
                                kind: "impl".to_string(),
                                line,
                            });
                        }
                        attrs.clear();
                        is_pub = false;
                    }
                    kw if SKIPPED_ITEMS.contains(&kw) => {
                        let line = self.line(self.i);
                        self.skip_item();
                        items.push(Item::Other {
                            kind: kw.to_string(),
                            line,
                        });
                        attrs.clear();
                        is_pub = false;
                    }
                    _ => {
                        self.i += 1;
                    }
                },
                _ => {
                    self.i += 1;
                }
            }
        }
        items
    }

    /// Parse `#[...]` starting at the current `#`. A bare `#` not followed
    /// by `[` (or `![`, for inner attributes) is consumed alone.
    fn attr(&mut self) -> Option<Attr> {
        let line = self.line(self.i);
        self.i += 1; // '#'
        if self.is_punct(self.i, '!') {
            self.i += 1;
        }
        if !self.is_punct(self.i, '[') {
            return None;
        }
        let mut depth = 0i32;
        let mut idents = Vec::new();
        while let Some(k) = self.kind(self.i) {
            match k {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        break;
                    }
                }
                TokenKind::Ident(s) => idents.push(s.clone()),
                _ => {}
            }
            self.i += 1;
        }
        Some(Attr { line, idents })
    }

    /// Skip an item introduced by a keyword in [`SKIPPED_ITEMS`]: advance
    /// to the `;` terminating it or the balanced `{...}` block it opens,
    /// whichever comes first at bracket depth 0.
    fn skip_item(&mut self) {
        self.i += 1; // the keyword
        let mut depth = 0i32;
        while let Some(k) = self.kind(self.i) {
            match k {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct(';') if depth == 0 => {
                    self.i += 1;
                    return;
                }
                TokenKind::Punct('{') if depth == 0 => {
                    self.skip_balanced('{', '}');
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Skip a balanced `open ... close` group starting at the current
    /// token (which must be `open`).
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(k) = self.kind(self.i) {
            match k {
                TokenKind::Punct(c) if *c == open => depth += 1,
                TokenKind::Punct(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Parse `fn name ... { body }` starting at `fn`.
    fn fn_item(&mut self, attrs: Vec<Attr>, is_pub: bool) -> FnItem {
        let line = self.line(self.i);
        self.i += 1; // 'fn'
        let name = self.ident(self.i).unwrap_or("").to_string();
        if !name.is_empty() {
            self.i += 1;
        }
        // Signature: scan to the body `{` or the terminating `;` at paren
        // depth 0. Angle brackets in generics/returns need no tracking —
        // neither `{` nor `;` occurs inside them in a signature.
        let mut paren = 0i32;
        loop {
            match self.kind(self.i) {
                None => {
                    return FnItem {
                        name,
                        line,
                        is_pub,
                        attrs,
                        calls: Vec::new(),
                        body: None,
                    }
                }
                Some(TokenKind::Punct('(')) | Some(TokenKind::Punct('[')) => paren += 1,
                Some(TokenKind::Punct(')')) | Some(TokenKind::Punct(']')) => paren -= 1,
                Some(TokenKind::Punct(';')) if paren == 0 => {
                    self.i += 1;
                    return FnItem {
                        name,
                        line,
                        is_pub,
                        attrs,
                        calls: Vec::new(),
                        body: None,
                    };
                }
                Some(TokenKind::Punct('{')) if paren == 0 => break,
                _ => {}
            }
            self.i += 1;
        }
        // Body: find the matching `}` and extract calls from the slice.
        let body_start = self.i;
        self.skip_balanced('{', '}');
        let body_end = self.i; // one past the closing '}'
        let range = (body_start + 1, body_end.saturating_sub(1));
        let calls = body_calls(self.toks, range.0, range.1);
        FnItem {
            name,
            line,
            is_pub,
            attrs,
            calls,
            body: Some(range),
        }
    }

    /// Parse `mod name;` or `mod name { items }` starting at `mod`.
    fn mod_item(&mut self, attrs: Vec<Attr>) -> Item {
        let line = self.line(self.i);
        self.i += 1; // 'mod'
        let name = self.ident(self.i).unwrap_or("").to_string();
        if !name.is_empty() {
            self.i += 1;
        }
        if self.is_punct(self.i, '{') {
            self.i += 1;
            let items = self.items(false);
            if self.is_punct(self.i, '}') {
                self.i += 1;
            }
            Item::Mod(ModItem {
                name,
                line,
                attrs,
                items,
            })
        } else {
            if self.is_punct(self.i, ';') {
                self.i += 1;
            }
            Item::Other {
                kind: "mod".to_string(),
                line,
            }
        }
    }
}

/// Extract [`MethodCall`]s from the token range `[start, end)` of a
/// function body.
fn body_calls(toks: &[Token], start: usize, end: usize) -> Vec<MethodCall> {
    let end = end.min(toks.len());
    let mut calls = Vec::new();
    let mut j = start;
    while j < end {
        match &toks[j].kind {
            TokenKind::Punct('.') => {
                // Method call or field access: . name [::<...>] (
                if let Some(TokenKind::Ident(name)) = toks.get(j + 1).map(|t| &t.kind) {
                    let line = toks[j + 1].line;
                    let tok = j + 1;
                    let mut k = j + 2;
                    let mut generics = Vec::new();
                    // Turbofish: `::<...>`
                    if matches!(toks.get(k).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                        && matches!(toks.get(k + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                        && matches!(toks.get(k + 2).map(|t| &t.kind), Some(TokenKind::Punct('<')))
                    {
                        k += 2;
                        let mut depth = 0i32;
                        while k < end {
                            match &toks[k].kind {
                                TokenKind::Punct('<') => depth += 1,
                                TokenKind::Punct('>') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        k += 1;
                                        break;
                                    }
                                }
                                TokenKind::Ident(g) => generics.push(g.clone()),
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    if matches!(toks.get(k).map(|t| &t.kind), Some(TokenKind::Punct('('))) {
                        let first_arg = match toks.get(k + 1).map(|t| &t.kind) {
                            Some(TokenKind::Num(n)) => Some(ArgHead::Num(n.clone())),
                            Some(TokenKind::Ident(i)) => Some(ArgHead::Ident(i.clone())),
                            Some(TokenKind::Punct(')')) => None,
                            Some(_) => Some(ArgHead::Other),
                            None => None,
                        };
                        calls.push(MethodCall {
                            name: name.clone(),
                            generics,
                            first_arg,
                            line,
                            tok,
                        });
                        j = k; // the '(' and beyond still scanned (nested calls)
                    } else {
                        // Field access — consume the name so it is not
                        // re-read as a path start.
                        j = k;
                    }
                } else {
                    j += 1;
                }
            }
            _ => {
                j += 1;
            }
        }
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src))
    }

    fn find_fn<'a>(items: &'a [Item], name: &str) -> Option<&'a FnItem> {
        for item in items {
            match item {
                Item::Fn(f) if f.name == name => return Some(f),
                Item::Fn(_) | Item::Other { .. } => {}
                Item::Mod(m) => {
                    if let Some(f) = find_fn(&m.items, name) {
                        return Some(f);
                    }
                }
                Item::Impl(i) => {
                    if let Some(f) = find_fn(&i.items, name) {
                        return Some(f);
                    }
                }
            }
        }
        None
    }

    fn fn_named<'a>(file: &'a File, name: &str) -> &'a FnItem {
        find_fn(&file.items, name).expect("function not found")
    }

    #[test]
    fn parses_items_and_bodies() {
        let src = r#"
            pub struct S { x: [u8; 4] }
            impl S {
                pub fn method(&self) -> f32 {
                    self.xs.iter().sum::<f32>()
                }
            }
            mod helpers {
                fn helper() { x.unwrap(); }
            }
        "#;
        let file = parse_src(src);
        let method = fn_named(&file, "method");
        assert!(method.is_pub);
        assert!(method
            .calls
            .iter()
            .any(|c| c.name == "sum" && c.generics == ["f32".to_string()]));
        let helper = fn_named(&file, "helper");
        assert!(helper.calls.iter().any(|c| c.name == "unwrap"));
    }

    #[test]
    fn test_attributes_and_cfg_test_mods_are_flagged() {
        let src = r#"
            #[test]
            fn direct_test() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper_in_tests() { y.unwrap(); }
            }
            fn production() { z.unwrap(); }
        "#;
        let file = parse_src(src);
        let mut in_test = Vec::new();
        walk_fns(&file, |f, t| in_test.push((f.name.clone(), t)));
        assert_eq!(
            in_test,
            vec![
                ("direct_test".to_string(), true),
                ("helper_in_tests".to_string(), true),
                ("production".to_string(), false),
            ]
        );
    }

    #[test]
    fn fold_first_arg_is_captured() {
        let src = r#"
            fn f(xs: &[f32]) -> f32 {
                xs.iter().fold(0.0f32, |a, b| a + b)
            }
        "#;
        let file = parse_src(src);
        let f = fn_named(&file, "f");
        let zero = Some(ArgHead::Num("0.0f32".to_string()));
        assert!(f
            .calls
            .iter()
            .any(|c| c.name == "fold" && c.first_arg == zero));
    }

    #[test]
    fn string_arguments_do_not_hide_method_calls() {
        let src = r#"
            fn f() -> String {
                std::env::var("OM_THREADS").unwrap_or_default()
            }
        "#;
        let file = parse_src(src);
        let f = fn_named(&file, "f");
        assert!(f.calls.iter().any(|c| c.name == "unwrap_or_default"));
    }
}
