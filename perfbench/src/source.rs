//! Prints a parsed program back to mini-language source text.
//!
//! The suites and generators hand out parsed [`Program`]s, but every
//! workload starts from program *text*, so that parsing is part of the timed
//! job exactly as it is for `termite analyze` and `termite serve`. The printer
//! is checked by a round trip: parsing the text must give back the same
//! program (see [`checked_text`]).

use termite_ir::{parse_named_program, CmpOp, Cond, Expr, Program, Stmt};

/// Source text of `program`, checked to parse back to the same program.
pub fn checked_text(program: &Program) -> Result<String, String> {
    if program.init.is_some() {
        return Err(format!(
            "{}: programs with a separate `init` condition are not printable",
            program.name
        ));
    }
    let text = program_text(program);
    match parse_named_program(&text, &program.name) {
        Ok(parsed) if parsed == *program => Ok(text),
        Ok(_) => Err(format!(
            "{}: printed text parses to another program",
            program.name
        )),
        Err(e) => Err(format!(
            "{}: printed text does not parse: {e}",
            program.name
        )),
    }
}

/// Source text of `program` (unchecked; see [`checked_text`]).
fn program_text(program: &Program) -> String {
    let mut out = format!("var {};\n", program.vars.join(", "));
    for stmt in &program.body {
        write_stmt(&mut out, program, stmt, 0);
    }
    out
}

fn write_block(out: &mut String, p: &Program, stmts: &[Stmt], depth: usize) {
    out.push_str("{\n");
    for stmt in stmts {
        write_stmt(out, p, stmt, depth + 1);
    }
    out.push_str(&"  ".repeat(depth));
    out.push('}');
}

fn write_stmt(out: &mut String, p: &Program, stmt: &Stmt, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    match stmt {
        Stmt::Assign(v, e) => out.push_str(&format!("{} = {};", p.vars[*v], expr(p, e))),
        Stmt::Assume(c) => out.push_str(&format!("assume {};", cond(p, c))),
        Stmt::Skip => out.push_str("skip;"),
        Stmt::If(c, then_branch, else_branch) => {
            out.push_str(&format!("if ({}) ", cond(p, c)));
            write_block(out, p, then_branch, depth);
            if !else_branch.is_empty() {
                out.push_str(" else ");
                write_block(out, p, else_branch, depth);
            }
        }
        Stmt::Choice(branches) => {
            out.push_str("choice ");
            for (i, branch) in branches.iter().enumerate() {
                if i > 0 {
                    out.push_str(" or ");
                }
                write_block(out, p, branch, depth);
            }
        }
        Stmt::While(c, body) => {
            out.push_str(&format!("while ({}) ", cond(p, c)));
            write_block(out, p, body, depth);
        }
    }
    out.push('\n');
}

/// An expression at sum level: `+`/`-` chains associate to the left, so only
/// right operands that are themselves sums need parentheses.
fn expr(p: &Program, e: &Expr) -> String {
    match e {
        Expr::Add(a, b) => format!("{} + {}", expr(p, a), term(p, b)),
        Expr::Sub(a, b) => format!("{} - {}", expr(p, a), term(p, b)),
        _ => term(p, e),
    }
}

fn term(p: &Program, e: &Expr) -> String {
    match e {
        Expr::Mul(a, b) => format!("{} * {}", term(p, a), factor(p, b)),
        _ => factor(p, e),
    }
}

fn factor(p: &Program, e: &Expr) -> String {
    match e {
        Expr::Const(c) => c.to_string(),
        Expr::Var(v) => p.vars[*v].clone(),
        Expr::Nondet => "nondet()".to_string(),
        Expr::Neg(inner) => format!("-({})", expr(p, inner)),
        _ => format!("({})", expr(p, e)),
    }
}

fn cond(p: &Program, c: &Cond) -> String {
    match c {
        Cond::Or(cs) => cs
            .iter()
            .map(|c| match c {
                Cond::Or(_) => format!("({})", cond(p, c)),
                _ => cond(p, c),
            })
            .collect::<Vec<_>>()
            .join(" || "),
        Cond::And(cs) => cs
            .iter()
            .map(|c| cond_atom(p, c))
            .collect::<Vec<_>>()
            .join(" && "),
        _ => cond_atom(p, c),
    }
}

fn cond_atom(p: &Program, c: &Cond) -> String {
    match c {
        Cond::True => "true".to_string(),
        Cond::False => "false".to_string(),
        Cond::Nondet => "nondet()".to_string(),
        Cond::Not(inner) => format!("!{}", cond_atom(p, inner)),
        Cond::Cmp(a, op, b) => {
            let op = match op {
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
                CmpOp::Le => "<=",
                CmpOp::Lt => "<",
                CmpOp::Ge => ">=",
                CmpOp::Gt => ">",
            };
            format!("{} {op} {}", expr(p, a), expr(p, b))
        }
        Cond::And(_) | Cond::Or(_) => format!("({})", cond(p, c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_program_round_trips() {
        for b in termite_suite::all_benchmarks() {
            checked_text(&b.program).unwrap();
        }
    }

    #[test]
    fn nested_operators_round_trip() {
        let src = "var x, y; assume !(x > 0 && y > 0) || (x == 0 || y != 1); \
                   while (x - (y - 1) > -(x + 2) * 3) { x = x - 2 * (y + 1); }";
        let p = parse_named_program(src, "p").unwrap();
        checked_text(&p).unwrap();
    }
}
