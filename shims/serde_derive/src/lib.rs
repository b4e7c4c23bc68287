//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline
//! serde shim. Parses the derive input token stream by hand (no
//! `syn`/`quote` available offline) and emits impls of the shim's
//! traits: `Serialize` builds a `serde::Value`; `Deserialize` streams
//! from a `serde::Reader`, matching each object key as it is read
//! (unknown keys are skipped, missing or repeated ones are errors).
//!
//! Supported input shapes — everything this workspace uses:
//! * structs with named fields,
//! * unit structs,
//! * enums whose variants are unit, tuple (one to four fields), or
//!   struct-like, externally tagged as in serde: a unit variant is its
//!   name as a string, any other a one-key object `{"Name": payload}`.
//!
//! Generics and `#[serde(...)]` attributes are rejected with a panic at
//! macro-expansion time so misuse is loud, not silent.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    /// Named-field struct (field names in order) or unit struct (empty).
    Struct(Vec<String>),
    /// Enum: (variant name, payload) in order.
    Enum(Vec<(String, VariantPayload)>),
}

#[derive(Debug)]
enum VariantPayload {
    Unit,
    /// Tuple variant with this many fields.
    Tuple(usize),
    /// Struct variant with these field names.
    Struct(Vec<String>),
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_input(input);
    gen_serialize(&name, &shape)
        .parse()
        .expect("generated impl parses")
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_input(input);
    gen_deserialize(&name, &shape)
        .parse()
        .expect("generated impl parses")
}

fn parse_input(input: TokenStream) -> (String, Shape) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Skip outer attributes and visibility.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2, // '#' + [...]
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic type `{name}` is not supported");
        }
    }
    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                (name, Shape::Struct(parse_named_fields(g.stream())))
            }
            // `struct X;` — unit struct.
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => (name, Shape::Struct(Vec::new())),
            other => panic!("serde shim derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                (name, Shape::Enum(parse_variants(g.stream())))
            }
            other => panic!("serde shim derive: expected enum body for `{name}`, got {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

/// Parse `field: Type, ...` returning field names in declaration order.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes (doc comments included) and visibility.
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 2;
                continue;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
                continue;
            }
            _ => {}
        }
        let fname = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after `{fname}`, got {other:?}"),
        }
        // Consume the type: until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(fname);
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<(String, VariantPayload)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 2;
                continue;
            }
            _ => {}
        }
        let vname = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let payload = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantPayload::Struct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantPayload::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantPayload::Unit,
        };
        // Skip an optional discriminant `= expr` and the trailing comma.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push((vname, payload));
    }
    variants
}

/// Count comma-separated types at angle-bracket depth 0.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut saw_token_since_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                saw_token_since_comma = false;
                count += 1;
                continue;
            }
            _ => {}
        }
        saw_token_since_comma = true;
    }
    if !saw_token_since_comma {
        count -= 1; // trailing comma
    }
    count
}

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Struct(fields) => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "__obj.push((\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})));\n"
                ));
            }
            format!(
                "let mut __obj: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Object(__obj)"
            )
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (v, payload) in variants {
                match payload {
                    VariantPayload::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),\n"
                    )),
                    VariantPayload::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            format!(
                                "::serde::Value::Array(vec![{}])",
                                binds
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )
                        };
                        arms.push_str(&format!(
                            "{name}::{v}({}) => ::serde::Value::Object(vec![(\"{v}\".to_string(), {inner})]),\n",
                            binds.join(", ")
                        ));
                    }
                    VariantPayload::Struct(fields) => {
                        let pairs = fields
                            .iter()
                            .map(|f| {
                                format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))")
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        arms.push_str(&format!(
                            "{name}::{v} {{ {} }} => ::serde::Value::Object(vec![(\"{v}\".to_string(), \
                             ::serde::Value::Object(vec![{pairs}]))]),\n",
                            fields.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

/// Code that reads one JSON object into `ctor { fields }`, dispatching
/// on each key as it is read and skipping unknown keys.
fn gen_fields(ctor: &str, fields: &[String]) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (k, f) in fields.iter().enumerate() {
        decls.push_str(&format!("let mut __f{k} = ::std::option::Option::None;\n"));
        arms.push_str(&format!("\"{f}\" => __r.fill(&mut __f{k}, \"{f}\")?,\n"));
        inits.push_str(&format!(
            "{f}: __f{k}.ok_or_else(|| ::serde::Error::missing(\"{f}\"))?,\n"
        ));
    }
    format!(
        "{{ __r.begin_object()?;\n{decls}\
         while let ::std::option::Option::Some(__k) = __r.next_key()? {{\n\
         match &*__k {{\n{arms}_ => __r.skip_value()?,\n}}\n}}\n\
         {ctor} {{\n{inits}}} }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Struct(fields) if fields.is_empty() => {
            format!("__r.skip_value()?;\n::std::result::Result::Ok({name})")
        }
        Shape::Struct(fields) => {
            format!("::std::result::Result::Ok({})", gen_fields(name, fields))
        }
        Shape::Enum(variants) => {
            // Externally tagged: a unit variant is a string, any other is
            // an object with exactly one key, the variant name.
            let unknown =
                format!("::std::result::Result::Err(__r.error(\"unknown variant for {name}\"))");
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (v, payload) in variants {
                let construct = match payload {
                    VariantPayload::Unit => {
                        unit_arms.push_str(&format!(
                            "\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"
                        ));
                        continue;
                    }
                    VariantPayload::Tuple(1) => {
                        format!("{name}::{v}(::serde::Deserialize::deserialize(__r)?)")
                    }
                    VariantPayload::Tuple(n) => {
                        assert!(
                            (2..=4).contains(n),
                            "serde shim derive: tuple variant `{name}::{v}` needs 1 to 4 fields"
                        );
                        let binds = (0..*n)
                            .map(|k| format!("__t{k}"))
                            .collect::<Vec<_>>()
                            .join(", ");
                        format!(
                            "{{ let ({binds}) = ::serde::Deserialize::deserialize(__r)?; \
                             {name}::{v}({binds}) }}"
                        )
                    }
                    VariantPayload::Struct(fields) => gen_fields(&format!("{name}::{v}"), fields),
                };
                tagged_arms.push_str(&format!("\"{v}\" => {construct},\n"));
            }
            let tagged = if tagged_arms.is_empty() {
                unknown.clone()
            } else {
                format!(
                    "__r.begin_object()?;\n\
                     let __tag = match __r.next_key()? {{\n\
                     ::std::option::Option::Some(__tag) => __tag,\n\
                     ::std::option::Option::None => return {unknown},\n}};\n\
                     let __out = match &*__tag {{\n{tagged_arms}_ => return {unknown},\n}};\n\
                     if __r.next_key()?.is_some() {{\n\
                     return ::std::result::Result::Err(__r.error(\"more than one key for {name}\"));\n}}\n\
                     ::std::result::Result::Ok(__out)"
                )
            };
            format!(
                "if __r.peek() == ::std::option::Option::Some(b'\"') {{\n\
                 let __s = __r.read_str()?;\n\
                 return match &*__s {{\n{unit_arms}_ => {unknown},\n}};\n}}\n{tagged}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
