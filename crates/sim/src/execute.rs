//! The execute µ-engine: a small ALU driven by address-free execute µops.

use ganax_isa::ExecUop;

/// The non-linear function applied by the `act` µop (selected by `mimd.ld`
/// into the activation-select register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivationKind {
    /// Identity (no non-linearity).
    #[default]
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky rectified linear unit with a fixed 0.2 slope.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActivationKind {
    /// Applies the non-linearity.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Identity => x,
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

/// The state of the execute µ-engine: the accumulator register, the repeat
/// machinery and the currently running µop.
///
/// The engine itself holds no operand addresses — that is the whole point of
/// the decoupled access-execute design — so its API works on operand *values*
/// handed to it by the processing engine, which pops the addresses from the
/// access µ-engine's FIFOs and reads the scratchpads.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteEngine {
    accumulator: f32,
    repeat_register: u16,
    pending_repeat: Option<u32>,
    current: Option<(ExecUop, u32)>,
    activation: ActivationKind,
    alu_ops: u64,
}

impl ExecuteEngine {
    /// Creates an idle execute µ-engine.
    pub fn new() -> Self {
        ExecuteEngine {
            accumulator: 0.0,
            repeat_register: 1,
            pending_repeat: None,
            current: None,
            activation: ActivationKind::Identity,
            alu_ops: 0,
        }
    }

    /// Loads the repeat register (the `mimd.ld` target).
    pub fn set_repeat(&mut self, count: u16) {
        self.repeat_register = count.max(1);
    }

    /// Selects the non-linear function used by `act`.
    pub fn set_activation(&mut self, activation: ActivationKind) {
        self.activation = activation;
    }

    /// The configured activation.
    pub fn activation(&self) -> ActivationKind {
        self.activation
    }

    /// Whether a µop is currently in flight.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// The µop currently in flight, if any.
    pub fn current_uop(&self) -> Option<ExecUop> {
        self.current.map(|(uop, _)| uop)
    }

    /// Remaining repetitions of the µop in flight.
    pub fn remaining_repeats(&self) -> u32 {
        self.current.map(|(_, n)| n).unwrap_or(0)
    }

    /// The value the next `repeat` µop will arm.
    pub(crate) fn repeat_register(&self) -> u16 {
        self.repeat_register
    }

    /// Total ALU operations performed.
    pub fn alu_ops(&self) -> u64 {
        self.alu_ops
    }

    /// Resets the engine to its just-constructed state: accumulator, repeat
    /// machinery, in-flight µop, activation select and ALU counter.
    pub fn reset(&mut self) {
        *self = ExecuteEngine::new();
    }

    /// The accumulator's current value.
    pub fn accumulator(&self) -> f32 {
        self.accumulator
    }

    /// Accepts the next µop from the µop FIFO. `repeat` µops arm the repeat
    /// machinery and complete immediately; other µops become the in-flight µop
    /// repeated either once or `repeat_register` times if armed.
    ///
    /// Returns `true` when the µop occupies the engine (i.e. it was not a
    /// `repeat` or `nop`).
    pub fn issue(&mut self, uop: ExecUop) -> bool {
        match uop {
            ExecUop::Repeat => {
                self.pending_repeat = Some(self.repeat_register as u32);
                false
            }
            ExecUop::Nop => false,
            _ => {
                let count = self.pending_repeat.take().unwrap_or(1);
                self.current = Some((uop, count.max(1)));
                true
            }
        }
    }

    /// Performs one invocation of the in-flight µop on the supplied operands.
    ///
    /// Returns `Some(value)` when the invocation produced a value that must be
    /// written to the output buffer this cycle, `None` when the value stays in
    /// the accumulator (`mac`/`pool` before their last repetition).
    ///
    /// # Panics
    /// Panics if no µop is in flight (callers check [`ExecuteEngine::is_busy`]).
    pub fn execute(&mut self, a: f32, b: f32) -> Option<f32> {
        let (uop, remaining) = self.current.expect("execute called with no uop in flight");
        self.alu_ops += 1;
        let last = remaining == 1;
        let result = match uop {
            ExecUop::Add => Some(a + b),
            ExecUop::Mul => Some(a * b),
            ExecUop::Mac => {
                self.accumulator += a * b;
                if last {
                    let value = self.accumulator;
                    self.accumulator = 0.0;
                    Some(value)
                } else {
                    None
                }
            }
            ExecUop::Pool => {
                self.accumulator = self.accumulator.max(a);
                if last {
                    let value = self.accumulator;
                    self.accumulator = 0.0;
                    Some(value)
                } else {
                    None
                }
            }
            ExecUop::Act => Some(self.activation.apply(a)),
            ExecUop::Repeat | ExecUop::Nop => None,
        };
        if last {
            self.current = None;
        } else {
            self.current = Some((uop, remaining - 1));
        }
        result
    }

    /// Settles the engine after a burst retired a whole queue of
    /// `repeat`+`mac` programs without issuing them one by one: charges the
    /// ALU operations and clears any pending repeat (every retired program
    /// ends with a completed `mac`, which consumes the armed repeat and
    /// resets the accumulator — the engine is left exactly as single-stepping
    /// would leave it).
    pub(crate) fn settle_mac_programs(&mut self, alu_ops: u64) {
        debug_assert!(self.current.is_none());
        self.alu_ops += alu_ops;
        self.pending_repeat = None;
        self.accumulator = 0.0;
    }
}

impl Default for ExecuteEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_functions() {
        assert_eq!(ActivationKind::Relu.apply(-1.0), 0.0);
        assert_eq!(ActivationKind::Relu.apply(2.0), 2.0);
        assert!((ActivationKind::LeakyRelu.apply(-1.0) + 0.2).abs() < 1e-6);
        assert!((ActivationKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((ActivationKind::Tanh.apply(0.0)).abs() < 1e-6);
        assert_eq!(ActivationKind::Identity.apply(3.5), 3.5);
    }

    #[test]
    fn mac_accumulates_until_last_repeat() {
        let mut engine = ExecuteEngine::new();
        engine.set_repeat(3);
        assert!(!engine.issue(ExecUop::Repeat));
        assert!(engine.issue(ExecUop::Mac));
        assert_eq!(engine.execute(1.0, 2.0), None);
        assert_eq!(engine.execute(3.0, 4.0), None);
        // Third (last) repetition flushes the accumulated dot product.
        assert_eq!(engine.execute(5.0, 6.0), Some(2.0 + 12.0 + 30.0));
        assert!(!engine.is_busy());
        assert_eq!(engine.alu_ops(), 3);
        assert_eq!(engine.accumulator(), 0.0);
    }

    #[test]
    fn unrepeated_mac_writes_back_immediately() {
        let mut engine = ExecuteEngine::new();
        assert!(engine.issue(ExecUop::Mac));
        assert_eq!(engine.execute(2.0, 3.0), Some(6.0));
        assert!(!engine.is_busy());
    }

    #[test]
    fn add_and_mul_write_every_invocation() {
        let mut engine = ExecuteEngine::new();
        engine.issue(ExecUop::Add);
        assert_eq!(engine.execute(1.0, 2.0), Some(3.0));
        engine.issue(ExecUop::Mul);
        assert_eq!(engine.execute(3.0, 4.0), Some(12.0));
    }

    #[test]
    fn pool_takes_running_maximum() {
        let mut engine = ExecuteEngine::new();
        engine.set_repeat(3);
        engine.issue(ExecUop::Repeat);
        engine.issue(ExecUop::Pool);
        assert_eq!(engine.execute(1.0, 0.0), None);
        assert_eq!(engine.execute(5.0, 0.0), None);
        assert_eq!(engine.execute(3.0, 0.0), Some(5.0));
    }

    #[test]
    fn act_applies_selected_nonlinearity() {
        let mut engine = ExecuteEngine::new();
        engine.set_activation(ActivationKind::Relu);
        engine.issue(ExecUop::Act);
        assert_eq!(engine.execute(-4.0, 0.0), Some(0.0));
    }

    #[test]
    fn repeat_register_defaults_to_one_and_clamps_zero() {
        let mut engine = ExecuteEngine::new();
        engine.set_repeat(0);
        engine.issue(ExecUop::Repeat);
        engine.issue(ExecUop::Mac);
        // Clamped to a single repetition.
        assert_eq!(engine.execute(2.0, 2.0), Some(4.0));
    }

    #[test]
    fn nop_does_not_occupy_the_engine() {
        let mut engine = ExecuteEngine::new();
        assert!(!engine.issue(ExecUop::Nop));
        assert!(!engine.is_busy());
    }
}
