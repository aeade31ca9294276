//! Derive macros for the vendored `serde` stand-in.
//!
//! Implemented directly over `proc_macro::TokenTree` (the build
//! environment has no `syn`/`quote`). Supports the shapes this workspace
//! actually derives: structs with named fields, tuple structs, and enums
//! with unit or tuple variants — optionally with plain type parameters.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The parsed skeleton of a `struct`/`enum` definition.
struct Item {
    name: String,
    /// Plain type-parameter names (the workspace derives nothing with
    /// lifetimes or const generics).
    generics: Vec<String>,
    kind: Kind,
}

enum Kind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    /// Tuple-payload arity; `0` for unit variants.
    arity: usize,
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated code parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated code parses")
}

// ---------------------------------------------------------------------------
// Parsing

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    skip_attrs_and_vis(&mut tokens);
    let keyword = expect_ident(&mut tokens);
    let name = expect_ident(&mut tokens);
    let generics = parse_generics(&mut tokens);
    match keyword.as_str() {
        "struct" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
                name,
                generics,
                kind: Kind::NamedStruct(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item {
                name,
                generics,
                kind: Kind::TupleStruct(count_top_level_items(g.stream())),
            },
            other => panic!("unsupported struct body: {other:?}"),
        },
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
                name,
                generics,
                kind: Kind::Enum(parse_variants(g.stream())),
            },
            other => panic!("unsupported enum body: {other:?}"),
        },
        other => panic!("cannot derive for `{other}`"),
    }
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skips `#[...]` attributes and `pub`/`pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &mut Tokens) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &mut Tokens) -> String {
    match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected identifier, found {other:?}"),
    }
}

/// Parses `<T, U>` (plain type parameters only), leaving the iterator past
/// the closing `>`. Returns an empty list when no generics follow.
fn parse_generics(tokens: &mut Tokens) -> Vec<String> {
    match tokens.peek() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
        _ => return Vec::new(),
    }
    tokens.next();
    let mut params = Vec::new();
    let mut depth = 1i32;
    let mut at_param_start = true;
    for tok in tokens.by_ref() {
        match &tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => at_param_start = true,
            TokenTree::Ident(i) if depth == 1 && at_param_start => {
                params.push(i.to_string());
                at_param_start = false;
            }
            _ => {}
        }
    }
    params
}

/// Field names of a named-field body, skipping types entirely.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        fields.push(name.to_string());
        // Consume `: Type` up to the next top-level comma.
        let mut angle_depth = 0i32;
        for tok in tokens.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// Number of comma-separated items at the top level of a token stream.
fn count_top_level_items(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_tokens = false;
    let mut angle_depth = 0i32;
    for tok in body {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    count + usize::from(saw_tokens)
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let mut arity = 0usize;
        if let Some(TokenTree::Group(g)) = tokens.peek() {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    arity = count_top_level_items(g.stream());
                    tokens.next();
                }
                Delimiter::Brace => panic!(
                    "struct-style enum variant `{name}` is not supported by the vendored derive"
                ),
                _ => {}
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            arity,
        });
        // Skip to the next variant (past discriminants and the comma).
        for tok in tokens.by_ref() {
            if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation

/// `impl<T: ::serde::Serialize> ... for Name<T>` header pieces.
fn impl_header(item: &Item, bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        (String::new(), item.name.clone())
    } else {
        let params: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: {bound}"))
            .collect();
        (
            format!("<{}>", params.join(", ")),
            format!("{}<{}>", item.name, item.generics.join(", ")),
        )
    }
}

/// `f0, f1, …` — the bindings of an `arity`-field tuple payload.
fn binders(arity: usize) -> String {
    (0..arity).map(|i| format!("f{i}, ")).collect()
}

/// `name` as the Rust literal of its JSON string token, quotes included:
/// `mesh` becomes `"\"mesh\""`. Field and variant names are
/// identifiers, so they hold nothing JSON escapes.
fn quoted(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}

/// Structs write a map keyed by field name, tuple structs a sequence (a
/// one-field tuple struct writes its field alone), and enum variants are
/// externally tagged: `"Unit"` or `{"Variant": payload}`, where a payload
/// of several fields is a sequence. Keys and tags are written as
/// literals with their quotes already in place ([`quoted`]).
fn gen_serialize(item: &Item) -> String {
    let (impl_generics, ty) = impl_header(item, "::serde::Serialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let writes: String = fields
                .iter()
                .map(|f| format!("map.field_literal({}, &self.{f});\n", quoted(f)))
                .collect();
            format!("let mut map = out.map();\n{writes}map.end();")
        }
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, out);".to_string(),
        Kind::TupleStruct(arity) => {
            let fields: String = (0..*arity).map(|i| format!("&self.{i}, ")).collect();
            format!("::serde::Serialize::serialize(&({fields}), out);")
        }
        Kind::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let b = binders(v.arity);
                    let payload = if v.arity == 1 {
                        "f0".to_string()
                    } else {
                        format!("&({b})")
                    };
                    let tag = quoted(vn);
                    if v.arity == 0 {
                        format!("{name}::{vn} => out.str_literal({tag}),\n")
                    } else {
                        format!(
                            "{name}::{vn}({b}) => {{\nlet mut map = out.map();\n\
                             map.field_literal({tag}, {payload});\nmap.end();\n}}\n"
                        )
                    }
                })
                .collect();
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl{impl_generics} ::serde::Serialize for {ty} {{\n\
             fn serialize(&self, out: &mut ::serde::Serializer) {{\n{body}\n}}\n\
         }}\n"
    )
}

/// The reader for [`gen_serialize`]'s layout. A struct first reads its
/// keys in declared order, the order [`gen_serialize`] writes them in,
/// for as long as each next key's bytes equal its quoted name. At the
/// first miss, which consumes nothing, it matches the rest of the map by
/// name, in any order: unknown keys are skipped, the first occurrence of
/// a key wins, and a missing field is an error. So the text this
/// workspace writes never reaches the by-name loop, and any other text
/// reads as it would by name alone.
fn gen_deserialize(item: &Item) -> String {
    let (impl_generics, ty) = impl_header(item, "::serde::Deserialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let slots: String = (0..fields.len())
                .map(|i| format!("let mut f{i} = None;\n"))
                .collect();
            let arms: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{f:?} if f{i}.is_none() => f{i} = Some(map.value()?),\n"))
                .collect();
            let inits: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let missing = format!("missing field `{f}`");
                    format!("{f}: f{i}.ok_or_else(|| ::serde::Error::custom({missing:?}))?,\n")
                })
                .collect();
            let in_order: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "if !map.key_literal({}) {{\nbreak 'declared;\n}}\nf{i} = Some(map.value()?);\n",
                        quoted(f)
                    )
                })
                .collect();
            let in_order = if fields.is_empty() {
                String::new()
            } else {
                format!("'declared: {{\n{in_order}}}\n")
            };
            format!(
                "{slots}let mut map = de.map()?;\n\
                 {in_order}\
                 while let Some(key) = map.key()? {{\n\
                     match &*key {{\n{arms}_ => map.skip_value()?,\n}}\n\
                 }}\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Kind::TupleStruct(1) => format!("Ok({name}(::serde::Deserialize::deserialize(de)?))"),
        Kind::TupleStruct(arity) => {
            let b = binders(*arity);
            format!("let ({b}) = ::serde::Deserialize::deserialize(de)?;\nOk({name}({b}))")
        }
        Kind::Enum(variants) => {
            let unrecognized =
                format!("::serde::Error::custom(\"unrecognized variant for {name}\")");
            let unit_arms: String = variants
                .iter()
                .filter(|v| v.arity == 0)
                .map(|v| format!("{vn:?} => Ok({name}::{vn}),\n", vn = v.name))
                .collect();
            let payload_arms: String = variants
                .iter()
                .filter(|v| v.arity > 0)
                .map(|v| {
                    let vn = &v.name;
                    let b = binders(v.arity);
                    if v.arity == 1 {
                        format!("Some({vn:?}) => {name}::{vn}(map.value()?),\n")
                    } else {
                        format!("Some({vn:?}) => {{\nlet ({b}) = map.value()?;\n{name}::{vn}({b})\n}}\n")
                    }
                })
                .collect();
            let mut body = String::new();
            if !unit_arms.is_empty() {
                body += &format!(
                    "if de.peek()? == b'\"' {{\n\
                         return match &*de.str()? {{\n{unit_arms}_ => Err({unrecognized}),\n}};\n\
                     }}\n"
                );
            }
            if payload_arms.is_empty() {
                body += &format!("Err({unrecognized})");
            } else {
                body += &format!(
                    "let mut map = de.map()?;\n\
                     let value = match map.key()?.as_deref() {{\n\
                         {payload_arms}_ => return Err({unrecognized}),\n\
                     }};\n\
                     match map.key()? {{\n\
                         None => Ok(value),\n\
                         Some(_) => Err({unrecognized}),\n\
                     }}"
                );
            }
            body
        }
    };
    format!(
        "impl{impl_generics} ::serde::Deserialize for {ty} {{\n\
             fn deserialize(de: &mut ::serde::Deserializer<'_>) -> Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}\n"
    )
}
