//! Tokenizer for the Scheme reader.

use crate::error::{err, SResult};
use guardians_gc::{FIXNUM_MAX, FIXNUM_MIN};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// `(` or `[`
    LParen,
    /// `)` or `]`
    RParen,
    /// `#(` — vector literal opener.
    VecOpen,
    /// `'`
    Quote,
    /// `` ` ``
    Backquote,
    /// `,`
    Unquote,
    /// `,@`
    UnquoteSplicing,
    /// `.` in dotted pairs.
    Dot,
    /// `#t` / `#f`
    Bool(bool),
    /// An exact integer literal.
    Fixnum(i64),
    /// An inexact (floating-point) literal.
    Flonum(f64),
    /// A string literal, unescaped.
    Str(String),
    /// A character literal.
    Char(char),
    /// An identifier.
    Symbol(String),
}

/// Tokenizes a whole source string.
///
/// # Errors
///
/// Returns an error on malformed strings, characters, or numbers.
pub fn tokenize(src: &str) -> SResult<Vec<Token>> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ';' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '(' | '[' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' | ']' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '\'' => {
                tokens.push(Token::Quote);
                i += 1;
            }
            '`' => {
                tokens.push(Token::Backquote);
                i += 1;
            }
            ',' => {
                if chars.get(i + 1) == Some(&'@') {
                    tokens.push(Token::UnquoteSplicing);
                    i += 2;
                } else {
                    tokens.push(Token::Unquote);
                    i += 1;
                }
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= chars.len() {
                        return err("unterminated string literal");
                    }
                    match chars[i] {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            i += 1;
                            if i >= chars.len() {
                                return err("unterminated escape in string");
                            }
                            s.push(match chars[i] {
                                'n' => '\n',
                                't' => '\t',
                                'r' => '\r',
                                '\\' => '\\',
                                '"' => '"',
                                other => return err(format!("bad string escape: \\{other}")),
                            });
                            i += 1;
                        }
                        other => {
                            s.push(other);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            '#' => {
                i += 1;
                if i >= chars.len() {
                    return err("lone # at end of input");
                }
                match chars[i] {
                    't' => {
                        tokens.push(Token::Bool(true));
                        i += 1;
                    }
                    'f' => {
                        tokens.push(Token::Bool(false));
                        i += 1;
                    }
                    '(' => {
                        tokens.push(Token::VecOpen);
                        i += 1;
                    }
                    '\\' => {
                        i += 1;
                        // Named characters first, then single characters.
                        let rest: String = chars[i..]
                            .iter()
                            .take_while(|c| c.is_alphanumeric() || **c == '-')
                            .collect();
                        let (ch, consumed) = match rest.as_str() {
                            "space" => (' ', 5),
                            "newline" => ('\n', 7),
                            "tab" => ('\t', 3),
                            "nul" => ('\0', 3),
                            _ => {
                                if i >= chars.len() {
                                    return err("unterminated character literal");
                                }
                                (chars[i], 1)
                            }
                        };
                        tokens.push(Token::Char(ch));
                        i += consumed;
                    }
                    other => return err(format!("unsupported # syntax: #{other}")),
                }
            }
            _ => {
                // Atom: number or symbol (Scheme identifiers are liberal).
                let start = i;
                while i < chars.len()
                    && !matches!(
                        chars[i],
                        ' ' | '\t'
                            | '\n'
                            | '\r'
                            | '('
                            | ')'
                            | '['
                            | ']'
                            | '"'
                            | ';'
                            | '\''
                            | '`'
                            | ','
                    )
                {
                    i += 1;
                }
                let atom: String = chars[start..i].iter().collect();
                tokens.push(classify_atom(&atom)?);
            }
        }
    }
    Ok(tokens)
}

fn classify_atom(atom: &str) -> SResult<Token> {
    if atom == "." {
        return Ok(Token::Dot);
    }
    // A number starts with a digit, or with +/- followed by a digit.
    let numeric_start = atom.chars().next().is_some_and(|c| c.is_ascii_digit())
        || (atom.len() > 1
            && (atom.starts_with('-') || atom.starts_with('+'))
            && atom
                .chars()
                .nth(1)
                .is_some_and(|c| c.is_ascii_digit() || c == '.'));
    if numeric_start {
        if atom.contains('.') || atom.contains('e') || atom.contains('E') {
            return match atom.parse::<f64>() {
                Ok(f) => Ok(Token::Flonum(f)),
                Err(_) => err(format!("malformed number: {atom}")),
            };
        }
        return match atom.parse::<i64>() {
            Ok(n) if (FIXNUM_MIN..=FIXNUM_MAX).contains(&n) => Ok(Token::Fixnum(n)),
            _ => err(format!("malformed number: {atom}")),
        };
    }
    Ok(Token::Symbol(atom.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_papers_example() {
        let toks = tokenize("(define G (make-guardian))").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::LParen,
                Token::Symbol("define".into()),
                Token::Symbol("G".into()),
                Token::LParen,
                Token::Symbol("make-guardian".into()),
                Token::RParen,
                Token::RParen,
            ]
        );
    }

    #[test]
    fn numbers_and_signs() {
        assert_eq!(tokenize("42").unwrap(), vec![Token::Fixnum(42)]);
        assert_eq!(tokenize("-7").unwrap(), vec![Token::Fixnum(-7)]);
        assert_eq!(tokenize("3.5").unwrap(), vec![Token::Flonum(3.5)]);
        assert_eq!(tokenize("-0.25").unwrap(), vec![Token::Flonum(-0.25)]);
        assert_eq!(tokenize("+").unwrap(), vec![Token::Symbol("+".into())]);
        assert_eq!(tokenize("-").unwrap(), vec![Token::Symbol("-".into())]);
        assert_eq!(tokenize("1e3").unwrap(), vec![Token::Flonum(1000.0)]);
    }

    #[test]
    fn strings_chars_bools() {
        assert_eq!(
            tokenize("\"a\\nb\"").unwrap(),
            vec![Token::Str("a\nb".into())]
        );
        assert_eq!(
            tokenize("#t #f").unwrap(),
            vec![Token::Bool(true), Token::Bool(false)]
        );
        assert_eq!(tokenize("#\\a").unwrap(), vec![Token::Char('a')]);
        assert_eq!(tokenize("#\\space").unwrap(), vec![Token::Char(' ')]);
        assert_eq!(tokenize("#\\newline").unwrap(), vec![Token::Char('\n')]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            tokenize("; a comment\n42 ; trailing\n").unwrap(),
            vec![Token::Fixnum(42)]
        );
    }

    #[test]
    fn brackets_work_like_parens() {
        // The paper's code uses (let ([p ...]) ...) bracket style.
        let toks = tokenize("[a]").unwrap();
        assert_eq!(
            toks,
            vec![Token::LParen, Token::Symbol("a".into()), Token::RParen]
        );
    }

    #[test]
    fn dots_and_quotes() {
        assert_eq!(
            tokenize("'(a . b)").unwrap(),
            vec![
                Token::Quote,
                Token::LParen,
                Token::Symbol("a".into()),
                Token::Dot,
                Token::Symbol("b".into()),
                Token::RParen
            ]
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("#q").is_err());
    }
}
