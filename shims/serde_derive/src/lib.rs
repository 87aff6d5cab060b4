//! `#[derive(Serialize, Deserialize)]` for the serde shim.
//!
//! Implemented without `syn`/`quote` (unavailable offline): a small
//! token scan extracts the struct name and field names, and the impls
//! are emitted as source text. Supported input: non-generic structs
//! with named fields — which is all the workspace derives on. Anything
//! else panics at expansion time with a clear message. The one field
//! attribute understood is `#[serde(flatten)]`: the field's own object
//! fields are spliced into the parent object (and read back from it).

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct StructShape {
    name: String,
    fields: Vec<Field>,
}

struct Field {
    name: String,
    /// Marked `#[serde(flatten)]`.
    flatten: bool,
}

fn parse_struct(input: TokenStream, trait_name: &str) -> StructShape {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes (`#[...]`, including doc comments) and the
    // visibility qualifier.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {}
        other => {
            panic!("#[derive({trait_name})] (serde shim) supports only structs, got {other:?}")
        }
    }

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected struct name, got {other:?}"),
    };

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => panic!(
            "#[derive({trait_name})] (serde shim) does not support generic structs; \
             `{name}` is generic"
        ),
        other => panic!(
            "#[derive({trait_name})] (serde shim) supports only named-field structs; \
             `{name}` has body {other:?}"
        ),
    };

    // Field grammar: (attrs)* (pub (group)?)? name ':' type ','?
    let mut fields = Vec::new();
    let mut toks = body.stream().into_iter().peekable();
    loop {
        // Skip attributes (noting `#[serde(flatten)]`) and visibility.
        let mut flatten = false;
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.next() {
                        flatten |= g.stream().to_string().replace(' ', "") == "serde(flatten)";
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let field = match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected field name in `{name}`, got {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{field}`, got {other:?}"),
        }
        // Skip the type up to the next top-level comma (tracking angle
        // bracket depth so `Map<K, V>` does not split early).
        let mut angle_depth = 0i32;
        for t in toks.by_ref() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
        fields.push(Field {
            name: field,
            flatten,
        });
    }

    StructShape { name, fields }
}

/// Derives the serde shim's `Serialize` for a named-field struct.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_struct(input, "Serialize");
    let mut entries = String::new();
    for Field { name: f, flatten } in &shape.fields {
        entries.push_str(&if *flatten {
            format!(
                "match ::serde::Serialize::to_value(&self.{f}) {{\n\
                     ::serde::Value::Object(inner) => fields.extend(inner),\n\
                     _ => ::std::panic!(\"#[serde(flatten)] field `{f}` is not an object\"),\n\
                 }}\n"
            )
        } else {
            format!(
                "fields.push((::std::string::String::from(\"{f}\"), \
                 ::serde::Serialize::to_value(&self.{f})));\n"
            )
        });
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 let mut fields = ::std::vec::Vec::with_capacity({len});\n\
                 {entries}\
                 ::serde::Value::Object(fields)\n\
             }}\n\
         }}",
        name = shape.name,
        len = shape.fields.len(),
    )
    .parse()
    .expect("serde shim derive emitted invalid Rust")
}

/// Derives the serde shim's `Deserialize` for a named-field struct.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_struct(input, "Deserialize");
    let mut inits = String::new();
    for Field { name: f, flatten } in &shape.fields {
        inits.push_str(&if *flatten {
            format!("{f}: ::serde::Deserialize::from_value(v)?,")
        } else {
            format!("{f}: ::serde::Deserialize::from_value(v.get_field(\"{f}\")?)?,")
        });
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value)\n\
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 ::std::result::Result::Ok({name} {{ {inits} }})\n\
             }}\n\
         }}",
        name = shape.name,
    )
    .parse()
    .expect("serde shim derive emitted invalid Rust")
}
