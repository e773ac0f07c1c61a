//! The instruction-level interface between workloads and the simulator.
//!
//! Workload generators (crate `ehs-workloads`) produce a deterministic
//! stream of [`Instruction`]s; the full-system simulator (crate `ehs-sim`)
//! consumes them one at a time, fetching each instruction's `pc` through the
//! ICache and routing loads/stores through the DCache. This is the
//! instruction-granular substitute for gem5's decoded ARMv7-M stream — see
//! DESIGN.md for why that granularity is sufficient for Kagura.

use std::fmt;

use crate::addr::Address;

/// Which way a memory operation moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// A 4-byte read.
    Load,
    /// A 4-byte write.
    Store,
}

impl fmt::Display for MemOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOpKind::Load => f.write_str("load"),
            MemOpKind::Store => f.write_str("store"),
        }
    }
}

/// What an instruction does, independent of where it lives in code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Load 4 bytes from `addr`.
    Load {
        /// Data address read by the instruction.
        addr: Address,
    },
    /// Store the 4-byte `value` to `addr`.
    Store {
        /// Data address written by the instruction.
        addr: Address,
        /// Little-endian word written.
        value: u32,
    },
    /// A one-cycle arithmetic/logic operation with no data-memory traffic.
    Alu,
}

impl InstKind {
    /// Returns the memory-operation kind, if this instruction touches memory.
    pub fn mem_op(&self) -> Option<MemOpKind> {
        match self {
            InstKind::Load { .. } => Some(MemOpKind::Load),
            InstKind::Store { .. } => Some(MemOpKind::Store),
            InstKind::Alu => None,
        }
    }

    /// Returns the data address, if this instruction touches memory.
    pub fn data_addr(&self) -> Option<Address> {
        match self {
            InstKind::Load { addr } | InstKind::Store { addr, .. } => Some(*addr),
            InstKind::Alu => None,
        }
    }

    /// Returns `true` if this is a memory instruction.
    pub fn is_mem(&self) -> bool {
        !matches!(self, InstKind::Alu)
    }
}

/// One dynamic instruction: a program counter plus what it does.
///
/// # Examples
///
/// ```
/// use ehs_model::{Address, Instruction, MemOpKind};
/// use ehs_model::inst::InstKind;
///
/// let inst = Instruction::load(Address::new(0x400), Address::new(0x10_000));
/// assert_eq!(inst.kind.mem_op(), Some(MemOpKind::Load));
/// assert_eq!(inst.pc, Address::new(0x400));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Code address the instruction is fetched from (drives the ICache).
    pub pc: Address,
    /// The operation performed.
    pub kind: InstKind,
}

impl Instruction {
    /// Creates a load instruction at `pc` reading `addr`.
    pub fn load(pc: Address, addr: Address) -> Self {
        Instruction { pc, kind: InstKind::Load { addr } }
    }

    /// Creates a store instruction at `pc` writing `value` to `addr`.
    pub fn store(pc: Address, addr: Address, value: u32) -> Self {
        Instruction { pc, kind: InstKind::Store { addr, value } }
    }

    /// Creates an ALU instruction at `pc`.
    pub fn alu(pc: Address) -> Self {
        Instruction { pc, kind: InstKind::Alu }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            InstKind::Load { addr } => write!(f, "{}: ld {}", self.pc, addr),
            InstKind::Store { addr, value } => {
                write!(f, "{}: st {} <- {:#x}", self.pc, addr, value)
            }
            InstKind::Alu => write!(f, "{}: alu", self.pc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let pc = Address::new(0x100);
        let a = Address::new(0x2000);
        assert_eq!(Instruction::load(pc, a).kind, InstKind::Load { addr: a });
        assert_eq!(Instruction::store(pc, a, 7).kind, InstKind::Store { addr: a, value: 7 });
        assert_eq!(Instruction::alu(pc).kind, InstKind::Alu);
    }

    #[test]
    fn mem_op_classification() {
        let pc = Address::new(0);
        let a = Address::new(0x40);
        assert_eq!(Instruction::load(pc, a).kind.mem_op(), Some(MemOpKind::Load));
        assert_eq!(Instruction::store(pc, a, 0).kind.mem_op(), Some(MemOpKind::Store));
        assert_eq!(Instruction::alu(pc).kind.mem_op(), None);
        assert!(Instruction::load(pc, a).kind.is_mem());
        assert!(!Instruction::alu(pc).kind.is_mem());
    }

    #[test]
    fn data_addr_present_only_for_mem_ops() {
        let pc = Address::new(0);
        let a = Address::new(0x88);
        assert_eq!(Instruction::load(pc, a).kind.data_addr(), Some(a));
        assert_eq!(Instruction::store(pc, a, 1).kind.data_addr(), Some(a));
        assert_eq!(Instruction::alu(pc).kind.data_addr(), None);
    }

    #[test]
    fn display_formats() {
        let i = Instruction::store(Address::new(0x4), Address::new(0x8), 0xff);
        assert_eq!(i.to_string(), "0x00000004: st 0x00000008 <- 0xff");
    }
}
