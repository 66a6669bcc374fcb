//! Derive macros for the vendored `serde` shim.
//!
//! Implemented directly on `proc_macro` token streams (no `syn`/`quote`,
//! which are unavailable offline): a small parser extracts the item name
//! plus its fields or variants, and the generated impls are assembled as
//! source text and re-parsed into a token stream.
//!
//! `Serialize` gets one body per type, `serialize`, which streams the
//! value into a `serde::Writer` (a struct with named fields is an object
//! of its fields, a unit enum variant is its name, any other variant a
//! one-entry object from its name to its fields); `to_value` is the
//! trait's provided method over the same walk. `Deserialize` reads the
//! `serde::Value` tree that walk describes.
//!
//! Supported shapes (everything this workspace derives on):
//! plain structs with named fields, unit structs, tuple structs, and enums
//! whose variants are unit, tuple, or struct-like. Generic type parameters
//! are not supported and produce a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

enum Fields {
    Unit,
    /// Named fields (struct or struct-variant).
    Named(Vec<String>),
    /// Tuple fields (count only).
    Tuple(usize),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skip `#[...]` attributes and `pub`/`pub(...)` visibility at `i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // '#' + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Parse the named fields of a brace group: `a: T, b: U, ...`.
fn parse_named_fields(group: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, got `{other}`")),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got `{other}`")),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    Ok(fields)
}

/// Count the tuple fields of a paren group (top-level comma separated).
fn count_tuple_fields(group: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle = 0i32;
    let mut trailing_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                count += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(group: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, got `{other}`")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream())?;
                i += 1;
                Fields::Named(f)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                i += 1;
                Fields::Tuple(n)
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant, then the separating comma.
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                i += 1;
                while i < tokens.len() {
                    if let TokenTree::Punct(p) = &tokens[i] {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push((name, fields));
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got `{other:?}`")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got `{other:?}`")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive does not support generics on `{name}`"
            ));
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                _ => Fields::Unit,
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let variants = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    parse_variants(g.stream())?
                }
                other => return Err(format!("expected enum body, got `{other:?}`")),
            };
            Ok(Item::Enum { name, variants })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

/// Writer calls for `fields`, each bound to `bind(field)`: an object for
/// named fields, an array for two or more tuple fields, the field itself
/// for a newtype, and null for a unit.
fn serialize_fields(fields: &Fields, bind: impl Fn(&str) -> String) -> String {
    let field = |f: &str| format!("::serde::Serialize::serialize({}, __w);", bind(f));
    match fields {
        Fields::Unit => "__w.null();".to_string(),
        Fields::Named(fs) => {
            let mut s = format!("__w.object({});", fs.len());
            for f in fs {
                s.push_str(&format!("__w.key({f:?});{}", field(f)));
            }
            s
        }
        Fields::Tuple(1) => field("0"),
        Fields::Tuple(n) => {
            let mut s = format!("__w.array({n});");
            for i in 0..*n {
                s.push_str(&field(&i.to_string()));
            }
            s
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let body = match item {
        Item::Struct { fields, .. } => serialize_fields(fields, |f| format!("&self.{f}")),
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, fields) in variants {
                // A unit variant is its name; any other is a one-entry
                // object from the name to its fields.
                let (pattern, inner) = match fields {
                    Fields::Unit => {
                        arms.push_str(&format!("{name}::{v} => __w.str({v:?}),\n"));
                        continue;
                    }
                    Fields::Named(fs) => (
                        format!("{name}::{v} {{ {} }}", fs.join(", ")),
                        serialize_fields(fields, str::to_string),
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        (
                            format!("{name}::{v}({})", binds.join(", ")),
                            serialize_fields(fields, |i| format!("__f{i}")),
                        )
                    }
                };
                arms.push_str(&format!(
                    "{pattern} => {{ __w.object(1); __w.key({v:?}); {inner} }}\n"
                ));
            }
            format!("match self {{ {arms} }}")
        }
    };
    let name = match item {
        Item::Struct { name, .. } | Item::Enum { name, .. } => name,
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize<__W: ::serde::Writer>(&self, __w: &mut __W) {{ {body} }}\n\
         }}"
    )
}

fn named_fields_from_obj(prefix: &str, fs: &[String], src: &str) -> String {
    let mut s = format!("{prefix} {{");
    for f in fs {
        s.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value({src}.get({f:?}) \
             .ok_or_else(|| ::serde::Error::msg(concat!(\"missing field `\", {f:?}, \"`\")))?)?,"
        ));
    }
    s.push('}');
    s
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => format!("Ok({name})"),
                Fields::Named(fs) => {
                    format!("Ok({})", named_fields_from_obj(name, fs, "v"))
                }
                Fields::Tuple(1) => {
                    format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
                }
                Fields::Tuple(n) => {
                    let mut s = format!(
                        "let items = v.as_array().ok_or_else(|| \
                         ::serde::Error::msg(\"expected array\"))?;\n\
                         if items.len() != {n} {{ return Err(::serde::Error::msg(\"wrong tuple length\")); }}\n\
                         Ok({name}("
                    );
                    for i in 0..*n {
                        s.push_str(&format!("::serde::Deserialize::from_value(&items[{i}])?,"));
                    }
                    s.push_str("))");
                    s
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => {
                        unit_arms.push_str(&format!("{v:?} => return Ok({name}::{v}),\n"));
                    }
                    Fields::Named(fs) => {
                        let ctor = named_fields_from_obj(&format!("{name}::{v}"), fs, "inner");
                        data_arms.push_str(&format!("{v:?} => {{ return Ok({ctor}); }}\n"));
                    }
                    Fields::Tuple(1) => {
                        data_arms.push_str(&format!(
                            "{v:?} => return Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),\n"
                        ));
                    }
                    Fields::Tuple(n) => {
                        let mut ctor = format!(
                            "let items = inner.as_array().ok_or_else(|| \
                             ::serde::Error::msg(\"expected array\"))?;\n\
                             if items.len() != {n} {{ return Err(::serde::Error::msg(\"wrong tuple length\")); }}\n\
                             return Ok({name}::{v}("
                        );
                        for i in 0..*n {
                            ctor.push_str(&format!(
                                "::serde::Deserialize::from_value(&items[{i}])?,"
                            ));
                        }
                        ctor.push_str("));");
                        data_arms.push_str(&format!("{v:?} => {{ {ctor} }}\n"));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         if let Some(s) = v.as_str() {{\n\
                             match s {{ {unit_arms} _ => {{}} }}\n\
                         }}\n\
                         if let Some(obj) = v.as_object() {{\n\
                             if obj.len() == 1 {{\n\
                                 let (tag, inner) = &obj[0];\n\
                                 let _ = inner;\n\
                                 match tag.as_str() {{ {data_arms} _ => {{}} }}\n\
                             }}\n\
                         }}\n\
                         Err(::serde::Error::msg(concat!(\"no matching variant of \", {name:?})))\n\
                     }}\n\
                 }}"
            )
        }
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen error: {e}"))),
        Err(e) => compile_error(&e),
    }
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen error: {e}"))),
        Err(e) => compile_error(&e),
    }
}
