//! The expression language of the intermediate representation.
//!
//! Guards and transition bodies compute over a small typed value
//! universe: integers, booleans, times (microsecond instants/durations)
//! and floats. Three builtins expose the event context the runtime
//! supplies: `t` (the event timestamp), `depData` (the monitored
//! variable on `EndTask` events) and `energy` (the capacitor level in
//! nanojoules, for the §4.2.2 extension property).

use core::fmt;

/// The IR's value types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VarType {
    /// Signed 64-bit integer counters.
    Int,
    /// Booleans.
    Bool,
    /// Times in microseconds (instants and durations share this type).
    Time,
    /// 64-bit floats (sensor data ranges).
    Float,
}

impl VarType {
    /// Keyword used in IR text.
    pub fn keyword(self) -> &'static str {
        match self {
            VarType::Int => "int",
            VarType::Bool => "bool",
            VarType::Time => "time",
            VarType::Float => "float",
        }
    }
}

/// A runtime value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Time in microseconds.
    Time(u64),
    /// Float.
    Float(f64),
}

impl Value {
    /// The value's type.
    pub fn ty(self) -> VarType {
        match self {
            Value::Int(_) => VarType::Int,
            Value::Bool(_) => VarType::Bool,
            Value::Time(_) => VarType::Time,
            Value::Float(_) => VarType::Float,
        }
    }

    pub(crate) fn as_bool(self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(b),
            other => Err(EvalError::TypeMismatch {
                expected: VarType::Bool,
                found: other.ty(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Time(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// Binary operators, loosest-binding last in the precedence table of
/// the IR parser.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-` (saturating for times)
    Sub,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A machine variable reference.
    Var(String),
    /// `t` — timestamp of the current event (microseconds).
    EventTime,
    /// `depData` — monitored variable on `EndTask` events.
    DepData,
    /// `energy` — capacitor level in nanojoules.
    EnergyLevel,
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `lhs op rhs` without the `Box` noise.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Time literal (microseconds).
    pub fn time(us: u64) -> Expr {
        Expr::Lit(Value::Time(us))
    }

    /// Float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Lit(Value::Float(v))
    }

    /// Variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// `a && b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::And, a, b)
    }

    /// `a || b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Or, a, b)
    }
}

/// Why evaluation failed. Validation catches these statically for
/// generated machines; hand-written IR can still hit them at runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A variable name did not resolve.
    UnknownVar,
    /// An operator was applied to the wrong type.
    TypeMismatch {
        /// What the context required.
        expected: VarType,
        /// What was found.
        found: VarType,
    },
    /// `depData` was referenced on an event that carries none.
    NoDepData,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVar => write!(f, "unknown variable"),
            EvalError::TypeMismatch { expected, found } => write!(
                f,
                "type mismatch: expected {}, found {}",
                expected.keyword(),
                found.keyword()
            ),
            EvalError::NoDepData => write!(f, "event carries no depData"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The per-event context expressions can observe.
#[derive(Clone, Copy, Debug)]
pub struct EventCtx {
    /// Event timestamp in microseconds.
    pub time_us: u64,
    /// Monitored variable value, if the event carries one.
    pub dep_data: Option<f64>,
    /// Capacitor level in nanojoules at event time.
    pub energy_nj: u64,
}

/// Variable lookup used during evaluation.
pub trait VarEnv {
    /// Resolves a variable by name.
    fn get(&self, name: &str) -> Option<Value>;
}

impl VarEnv for Vec<(String, Value)> {
    fn get(&self, name: &str) -> Option<Value> {
        self.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Evaluates `expr` under `env` and `ctx`.
pub fn eval(expr: &Expr, env: &dyn VarEnv, ctx: &EventCtx) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(v) => Ok(*v),
        Expr::Var(name) => env.get(name).ok_or(EvalError::UnknownVar),
        Expr::EventTime => Ok(Value::Time(ctx.time_us)),
        Expr::DepData => ctx.dep_data.map(Value::Float).ok_or(EvalError::NoDepData),
        Expr::EnergyLevel => Ok(Value::Int(i64::try_from(ctx.energy_nj).unwrap_or(i64::MAX))),
        Expr::Not(inner) => Ok(Value::Bool(!eval(inner, env, ctx)?.as_bool()?)),
        Expr::Bin(op, lhs, rhs) => {
            // Short-circuit logical operators.
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(
                        eval(lhs, env, ctx)?.as_bool()? && eval(rhs, env, ctx)?.as_bool()?,
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(
                        eval(lhs, env, ctx)?.as_bool()? || eval(rhs, env, ctx)?.as_bool()?,
                    ))
                }
                _ => {}
            }
            let l = eval(lhs, env, ctx)?;
            let r = eval(rhs, env, ctx)?;
            apply(*op, l, r)
        }
    }
}

pub(crate) fn apply(op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    use Value::*;

    match (l, r) {
        (Int(a), Int(b)) => Ok(match op {
            Add => Int(a.saturating_add(b)),
            Sub => Int(a.saturating_sub(b)),
            Lt => Bool(a < b),
            Le => Bool(a <= b),
            Gt => Bool(a > b),
            Ge => Bool(a >= b),
            Eq => Bool(a == b),
            Ne => Bool(a != b),
            And | Or => unreachable!("handled above"),
        }),
        (Time(a), Time(b)) => Ok(match op {
            Add => Time(a.saturating_add(b)),
            // Times subtract saturating at zero, like `SimInstant`.
            Sub => Time(a.saturating_sub(b)),
            Lt => Bool(a < b),
            Le => Bool(a <= b),
            Gt => Bool(a > b),
            Ge => Bool(a >= b),
            Eq => Bool(a == b),
            Ne => Bool(a != b),
            And | Or => unreachable!("handled above"),
        }),
        (Float(a), Float(b)) => Ok(match op {
            Add => Float(a + b),
            Sub => Float(a - b),
            Lt => Bool(a < b),
            Le => Bool(a <= b),
            Gt => Bool(a > b),
            Ge => Bool(a >= b),
            Eq => Bool(a == b),
            Ne => Bool(a != b),
            And | Or => unreachable!("handled above"),
        }),
        // Int/Float comparisons promote the int (range bounds vs data).
        (Int(a), Float(_)) => apply(op, Float(a as f64), r),
        (Float(_), Int(b)) => apply(op, l, Float(b as f64)),
        (Bool(a), Bool(b)) => Ok(match op {
            Eq => Bool(a == b),
            Ne => Bool(a != b),
            _ => {
                return Err(EvalError::TypeMismatch {
                    expected: VarType::Int,
                    found: VarType::Bool,
                })
            }
        }),
        _ => Err(EvalError::TypeMismatch {
            expected: l.ty(),
            found: r.ty(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EventCtx {
        EventCtx {
            time_us: 1_000,
            dep_data: Some(36.5),
            energy_nj: 500,
        }
    }

    fn env() -> Vec<(String, Value)> {
        vec![
            ("i".to_string(), Value::Int(3)),
            ("start".to_string(), Value::Time(400)),
            ("flag".to_string(), Value::Bool(true)),
        ]
    }

    #[test]
    fn literals_and_vars() {
        let e = env();
        assert_eq!(eval(&Expr::int(7), &e, &ctx()).unwrap(), Value::Int(7));
        assert_eq!(eval(&Expr::var("i"), &e, &ctx()).unwrap(), Value::Int(3));
        assert_eq!(
            eval(&Expr::var("zzz"), &e, &ctx()),
            Err(EvalError::UnknownVar)
        );
    }

    #[test]
    fn builtins_read_event_context() {
        let e = env();
        assert_eq!(
            eval(&Expr::EventTime, &e, &ctx()).unwrap(),
            Value::Time(1_000)
        );
        assert_eq!(
            eval(&Expr::DepData, &e, &ctx()).unwrap(),
            Value::Float(36.5)
        );
        assert_eq!(
            eval(&Expr::EnergyLevel, &e, &ctx()).unwrap(),
            Value::Int(500)
        );
        let no_data = EventCtx {
            dep_data: None,
            ..ctx()
        };
        assert_eq!(
            eval(&Expr::DepData, &e, &no_data),
            Err(EvalError::NoDepData)
        );
    }

    #[test]
    fn elapsed_time_pattern() {
        // `t - start <= 700` — the maxDuration guard shape.
        let e = env();
        let guard = Expr::bin(
            BinOp::Le,
            Expr::bin(BinOp::Sub, Expr::EventTime, Expr::var("start")),
            Expr::time(700),
        );
        assert_eq!(eval(&guard, &e, &ctx()).unwrap(), Value::Bool(true));
        let late = EventCtx {
            time_us: 2_000,
            ..ctx()
        };
        assert_eq!(eval(&guard, &e, &late).unwrap(), Value::Bool(false));
    }

    #[test]
    fn time_subtraction_saturates() {
        let e = env();
        // start - t where start < t would underflow; must clamp to 0.
        let diff = Expr::bin(BinOp::Sub, Expr::var("start"), Expr::EventTime);
        assert_eq!(eval(&diff, &e, &ctx()).unwrap(), Value::Time(0));
    }

    #[test]
    fn range_check_pattern() {
        // `depData < 36 || depData > 38` — the dpData guard shape.
        let e = env();
        let guard = Expr::or(
            Expr::bin(BinOp::Lt, Expr::DepData, Expr::float(36.0)),
            Expr::bin(BinOp::Gt, Expr::DepData, Expr::float(38.0)),
        );
        assert_eq!(eval(&guard, &e, &ctx()).unwrap(), Value::Bool(false));
        let feverish = EventCtx {
            dep_data: Some(39.2),
            ..ctx()
        };
        assert_eq!(eval(&guard, &e, &feverish).unwrap(), Value::Bool(true));
    }

    #[test]
    fn int_float_promotion() {
        let e = env();
        let cmp = Expr::bin(BinOp::Ge, Expr::DepData, Expr::int(36));
        assert_eq!(eval(&cmp, &e, &ctx()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        let e = env();
        // `flag || <unknown var>` must not evaluate the rhs.
        let expr = Expr::or(Expr::var("flag"), Expr::var("zzz"));
        assert_eq!(eval(&expr, &e, &ctx()).unwrap(), Value::Bool(true));
        // `!flag && <unknown>` short-circuits too.
        let expr = Expr::and(Expr::Not(Box::new(Expr::var("flag"))), Expr::var("zzz"));
        assert_eq!(eval(&expr, &e, &ctx()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn type_mismatches_are_errors() {
        let e = env();
        let bad = Expr::bin(BinOp::Add, Expr::var("i"), Expr::var("start"));
        assert!(matches!(
            eval(&bad, &e, &ctx()),
            Err(EvalError::TypeMismatch { .. })
        ));
        let bad = Expr::bin(BinOp::Lt, Expr::var("flag"), Expr::var("flag"));
        assert!(matches!(
            eval(&bad, &e, &ctx()),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn saturating_int_arithmetic() {
        let e = env();
        let big = Expr::bin(BinOp::Add, Expr::int(i64::MAX), Expr::int(1));
        assert_eq!(eval(&big, &e, &ctx()).unwrap(), Value::Int(i64::MAX));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Time(100).to_string(), "100");
        assert_eq!(Value::Float(36.0).to_string(), "36.0");
    }
}
