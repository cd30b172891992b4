//! A gas-metered EVM interpreter.
//!
//! Implements the arithmetic, control-flow, environment, memory, storage,
//! and logging opcodes that real Solidity dispatch code uses, with the
//! post-Berlin gas schedule from [`crate::gas`] (warm/cold access tracking
//! per EIP-2929, simplified EIP-2200 `SSTORE` pricing, EIP-3529 refund cap).
//!
//! A frame only reads the world state: `SSTORE` writes into the frame's own
//! write map, which [`ExecResult::storage`] hands back for the caller to
//! commit or drop.
//!
//! Out of scope: inter-contract `CALL`s, `CREATE`-from-contract,
//! `DELEGATECALL`/`STATICCALL`, precompiles, and `SELFDESTRUCT` — the
//! OFL-W3 contracts never use them.

use crate::gas;
use crate::state::State;
use ofl_primitives::u256::U256;
use ofl_primitives::{keccak256, H160, H256};
use std::collections::{BTreeMap, HashSet};

/// Maximum stack depth, per the Yellow Paper.
pub const STACK_LIMIT: usize = 1024;

/// Execution environment for one message call.
#[derive(Debug, Clone)]
pub struct Env {
    /// Account whose code runs and whose storage is addressed.
    pub address: H160,
    /// Immediate caller.
    pub caller: H160,
    /// Transaction originator.
    pub origin: H160,
    /// Wei sent with the call.
    pub call_value: U256,
    /// Call input data.
    pub calldata: Vec<u8>,
    /// Effective gas price of the transaction.
    pub gas_price: U256,
    /// Current block number.
    pub block_number: u64,
    /// Current block timestamp (seconds).
    pub timestamp: u64,
    /// Block gas limit.
    pub gas_limit: u64,
    /// Chain id (Sepolia = 11155111).
    pub chain_id: u64,
    /// Current block base fee.
    pub base_fee: U256,
}

/// A log record emitted by `LOG0`–`LOG4`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Emitting contract.
    pub address: H160,
    /// Indexed topics (0–4).
    pub topics: Vec<H256>,
    /// Unindexed data payload.
    pub data: Vec<u8>,
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `STOP` or `RETURN`; state changes commit.
    Success,
    /// `REVERT`; state changes roll back, unused gas returns.
    Revert,
    /// Gas exhausted; all gas consumed.
    OutOfGas,
    /// Invalid opcode / bad jump / stack violation; all gas consumed.
    Exception(ExecError),
}

/// Exceptional halt reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// Opcode not in our implemented subset (or designated INVALID).
    InvalidOpcode(u8),
    /// Jump target is not a JUMPDEST.
    BadJumpDestination,
    /// Stack underflow.
    StackUnderflow,
    /// Stack beyond 1024 items.
    StackOverflow,
    /// Memory or calldata offset overflowed usize.
    OffsetOverflow,
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::InvalidOpcode(op) => write!(f, "invalid opcode 0x{op:02x}"),
            ExecError::BadJumpDestination => write!(f, "bad jump destination"),
            ExecError::StackUnderflow => write!(f, "stack underflow"),
            ExecError::StackOverflow => write!(f, "stack overflow"),
            ExecError::OffsetOverflow => write!(f, "offset overflow"),
        }
    }
}

/// Result of executing one message call.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Terminal state.
    pub outcome: Outcome,
    /// Gas consumed (net of nothing; refunds are applied by the caller).
    pub gas_used: u64,
    /// Accumulated `SSTORE` clearing refund (pre-cap).
    pub refund: u64,
    /// Return or revert payload.
    pub output: Vec<u8>,
    /// Logs emitted (only meaningful on success).
    pub logs: Vec<LogEntry>,
    /// Final value of every storage slot of `Env::address` the frame
    /// wrote, in slot order (only meaningful on success).
    pub storage: BTreeMap<H256, U256>,
}

impl ExecResult {
    /// True iff the call ended in `Success`.
    pub fn is_success(&self) -> bool {
        self.outcome == Outcome::Success
    }
}

/// The interpreter for one call frame.
pub struct Interpreter<'a> {
    state: &'a State,
    env: Env,
    code: &'a [u8],
    valid_jumpdests: HashSet<usize>,
    stack: Vec<U256>,
    memory: Vec<u8>,
    pc: usize,
    gas_remaining: u64,
    gas_limit_call: u64,
    refund: u64,
    logs: Vec<LogEntry>,
    // EIP-2929 warm sets (per-transaction in real clients; per-call here,
    // which is identical for our single-frame transactions).
    warm_slots: HashSet<H256>,
    warm_accounts: HashSet<H160>,
    // Slots written so far and their current values. The state does not
    // change during a frame, so it still holds each slot's original value.
    writes: BTreeMap<H256, U256>,
}

enum Control {
    Continue,
    Stop(Outcome, Vec<u8>),
}

impl<'a> Interpreter<'a> {
    /// Prepares a frame to run `code` against `state` with `gas` available.
    pub fn new(state: &'a State, env: Env, code: &'a [u8], gas: u64) -> Self {
        let valid_jumpdests = scan_jumpdests(code);
        Interpreter {
            state,
            env,
            code,
            valid_jumpdests,
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            pc: 0,
            gas_remaining: gas,
            gas_limit_call: gas,
            refund: 0,
            logs: Vec::new(),
            warm_slots: HashSet::new(),
            warm_accounts: HashSet::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Runs to completion.
    pub fn run(mut self) -> ExecResult {
        loop {
            if self.pc >= self.code.len() {
                // Running off the end is an implicit STOP.
                return self.finish(Outcome::Success, Vec::new());
            }
            let op = self.code[self.pc];
            match self.step(op) {
                Ok(Control::Continue) => {}
                Ok(Control::Stop(outcome, output)) => return self.finish(outcome, output),
                Err(StepError::OutOfGas) => {
                    self.gas_remaining = 0;
                    return self.finish(Outcome::OutOfGas, Vec::new());
                }
                Err(StepError::Exception(e)) => {
                    self.gas_remaining = 0;
                    return self.finish(Outcome::Exception(e), Vec::new());
                }
            }
        }
    }

    fn finish(self, outcome: Outcome, output: Vec<u8>) -> ExecResult {
        let success = outcome == Outcome::Success;
        ExecResult {
            gas_used: self.gas_limit_call - self.gas_remaining,
            refund: if success { self.refund } else { 0 },
            logs: if success { self.logs } else { Vec::new() },
            storage: if success {
                self.writes
            } else {
                BTreeMap::new()
            },
            outcome,
            output,
        }
    }

    fn charge(&mut self, amount: u64) -> Result<(), StepError> {
        if self.gas_remaining < amount {
            return Err(StepError::OutOfGas);
        }
        self.gas_remaining -= amount;
        Ok(())
    }

    fn pop(&mut self) -> Result<U256, StepError> {
        self.stack
            .pop()
            .ok_or(StepError::Exception(ExecError::StackUnderflow))
    }

    fn push(&mut self, v: U256) -> Result<(), StepError> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(StepError::Exception(ExecError::StackOverflow));
        }
        self.stack.push(v);
        Ok(())
    }

    /// Charges memory expansion to cover `[offset, offset+len)` and returns
    /// the resolved usize range. Zero-length accesses never expand.
    fn mem_expand(&mut self, offset: &U256, len: &U256) -> Result<(usize, usize), StepError> {
        if len.is_zero() {
            return Ok((0, 0));
        }
        let off = offset
            .to_u64()
            .ok_or(StepError::Exception(ExecError::OffsetOverflow))? as usize;
        let l = len
            .to_u64()
            .ok_or(StepError::Exception(ExecError::OffsetOverflow))? as usize;
        let end = off
            .checked_add(l)
            .ok_or(StepError::Exception(ExecError::OffsetOverflow))?;
        // Guard absurd expansions before computing quadratic cost: the cost
        // of 16 MiB already exceeds any block gas limit we configure.
        if end > (1 << 26) {
            return Err(StepError::OutOfGas);
        }
        let new_words = gas::words(end as u64);
        let old_words = gas::words(self.memory.len() as u64);
        if new_words > old_words {
            let delta = gas::memory_cost(new_words) - gas::memory_cost(old_words);
            self.charge(delta)?;
            self.memory.resize(new_words as usize * 32, 0);
        }
        Ok((off, l))
    }

    fn step(&mut self, op: u8) -> Result<Control, StepError> {
        self.pc += 1;
        match op {
            0x00 => return Ok(Control::Stop(Outcome::Success, Vec::new())), // STOP
            0x01..=0x0b => self.arithmetic(op)?,
            0x10..=0x1d => self.comparison_bitwise(op)?,
            0x20 => self.keccak()?, // KECCAK256
            0x30..=0x48 => self.environment(op)?,
            0x50..=0x5b => return self.memory_flow(op),
            0x5f => {
                // PUSH0
                self.charge(gas::BASE)?;
                self.push(U256::ZERO)?;
            }
            0x60..=0x7f => {
                // PUSH1..PUSH32
                self.charge(gas::VERY_LOW)?;
                let n = (op - 0x5f) as usize;
                let end = (self.pc + n).min(self.code.len());
                let bytes = &self.code[self.pc..end];
                let mut word = [0u8; 32];
                word[32 - n..32 - n + bytes.len()].copy_from_slice(bytes);
                // Missing trailing bytes read as zero, per spec: shift left.
                let mut v = U256::from_be_bytes(&word);
                if bytes.len() < n {
                    v = v.shl(8 * (n - bytes.len()) as u32);
                }
                self.push(v)?;
                self.pc = end;
            }
            0x80..=0x8f => {
                // DUP1..DUP16
                self.charge(gas::VERY_LOW)?;
                let depth = (op - 0x80) as usize + 1;
                if self.stack.len() < depth {
                    return Err(StepError::Exception(ExecError::StackUnderflow));
                }
                let v = self.stack[self.stack.len() - depth];
                self.push(v)?;
            }
            0x90..=0x9f => {
                // SWAP1..SWAP16
                self.charge(gas::VERY_LOW)?;
                let depth = (op - 0x90) as usize + 1;
                let len = self.stack.len();
                if len < depth + 1 {
                    return Err(StepError::Exception(ExecError::StackUnderflow));
                }
                self.stack.swap(len - 1, len - 1 - depth);
            }
            0xa0..=0xa4 => self.log(op)?,
            0xf3 => {
                // RETURN
                let offset = self.pop()?;
                let len = self.pop()?;
                let (off, l) = self.mem_expand(&offset, &len)?;
                let out = self.memory[off..off + l].to_vec();
                return Ok(Control::Stop(Outcome::Success, out));
            }
            0xfd => {
                // REVERT
                let offset = self.pop()?;
                let len = self.pop()?;
                let (off, l) = self.mem_expand(&offset, &len)?;
                let out = self.memory[off..off + l].to_vec();
                return Ok(Control::Stop(Outcome::Revert, out));
            }
            other => return Err(StepError::Exception(ExecError::InvalidOpcode(other))),
        }
        Ok(Control::Continue)
    }

    fn arithmetic(&mut self, op: u8) -> Result<(), StepError> {
        match op {
            0x01 => {
                // ADD
                self.charge(gas::VERY_LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a.wrapping_add(&b))?;
            }
            0x02 => {
                // MUL
                self.charge(gas::LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a.wrapping_mul(&b))?;
            }
            0x03 => {
                // SUB
                self.charge(gas::VERY_LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a.wrapping_sub(&b))?;
            }
            0x04 => {
                // DIV (x/0 = 0)
                self.charge(gas::LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a.div_rem(&b).0)?;
            }
            0x05 => {
                // SDIV
                self.charge(gas::LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(sdiv(&a, &b))?;
            }
            0x06 => {
                // MOD
                self.charge(gas::LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a.div_rem(&b).1)?;
            }
            0x07 => {
                // SMOD
                self.charge(gas::LOW)?;
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(smod(&a, &b))?;
            }
            0x08 => {
                // ADDMOD
                self.charge(gas::MID)?;
                let (a, b, m) = (self.pop()?, self.pop()?, self.pop()?);
                let v = if m.is_zero() {
                    U256::ZERO
                } else {
                    a.add_mod(&b, &m)
                };
                self.push(v)?;
            }
            0x09 => {
                // MULMOD
                self.charge(gas::MID)?;
                let (a, b, m) = (self.pop()?, self.pop()?, self.pop()?);
                let v = if m.is_zero() {
                    U256::ZERO
                } else {
                    a.mul_mod(&b, &m)
                };
                self.push(v)?;
            }
            0x0a => {
                // EXP
                let (a, e) = (self.pop()?, self.pop()?);
                let exp_bytes = (e.bits() as u64).div_ceil(8);
                self.charge(gas::EXP + gas::EXP_BYTE * exp_bytes)?;
                self.push(a.wrapping_pow(&e))?;
            }
            0x0b => {
                // SIGNEXTEND
                self.charge(gas::LOW)?;
                let (k, x) = (self.pop()?, self.pop()?);
                self.push(signextend(&k, &x))?;
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    fn comparison_bitwise(&mut self, op: u8) -> Result<(), StepError> {
        self.charge(gas::VERY_LOW)?;
        match op {
            0x10 => {
                // LT
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(U256::from((a < b) as u64))?;
            }
            0x11 => {
                // GT
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(U256::from((a > b) as u64))?;
            }
            0x12 => {
                // SLT
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(U256::from(
                    (scmp(&a, &b) == std::cmp::Ordering::Less) as u64,
                ))?;
            }
            0x13 => {
                // SGT
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(U256::from(
                    (scmp(&a, &b) == std::cmp::Ordering::Greater) as u64,
                ))?;
            }
            0x14 => {
                // EQ
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(U256::from((a == b) as u64))?;
            }
            0x15 => {
                // ISZERO
                let a = self.pop()?;
                self.push(U256::from(a.is_zero() as u64))?;
            }
            0x16 => {
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a & b)?;
            }
            0x17 => {
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a | b)?;
            }
            0x18 => {
                let (a, b) = (self.pop()?, self.pop()?);
                self.push(a ^ b)?;
            }
            0x19 => {
                let a = self.pop()?;
                self.push(!a)?;
            }
            0x1a => {
                // BYTE: i'th byte of x, big-endian indexing
                let (i, x) = (self.pop()?, self.pop()?);
                let v = match i.to_u64() {
                    Some(idx) if idx < 32 => U256::from(x.to_be_bytes()[idx as usize] as u64),
                    _ => U256::ZERO,
                };
                self.push(v)?;
            }
            0x1b => {
                // SHL
                let (shift, v) = (self.pop()?, self.pop()?);
                let out = match shift.to_u64() {
                    Some(s) if s < 256 => v.shl(s as u32),
                    _ => U256::ZERO,
                };
                self.push(out)?;
            }
            0x1c => {
                // SHR
                let (shift, v) = (self.pop()?, self.pop()?);
                let out = match shift.to_u64() {
                    Some(s) if s < 256 => v.shr(s as u32),
                    _ => U256::ZERO,
                };
                self.push(out)?;
            }
            0x1d => {
                // SAR
                let (shift, v) = (self.pop()?, self.pop()?);
                self.push(sar(&shift, &v))?;
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    fn keccak(&mut self) -> Result<(), StepError> {
        let offset = self.pop()?;
        let len = self.pop()?;
        let word_count = gas::words(len.to_u64().unwrap_or(u64::MAX).min(1 << 32));
        self.charge(gas::KECCAK256 + gas::KECCAK256_WORD * word_count)?;
        let (off, l) = self.mem_expand(&offset, &len)?;
        let digest = keccak256(&self.memory[off..off + l]);
        self.push(U256::from_be_bytes(&digest))
    }

    fn environment(&mut self, op: u8) -> Result<(), StepError> {
        match op {
            0x30 => {
                // ADDRESS
                self.charge(gas::BASE)?;
                let w = self.env.address.to_word();
                self.push(w.to_u256())?;
            }
            0x31 => {
                // BALANCE
                let addr_word = self.pop()?;
                let addr = H160::from_word(&H256::from_u256(&addr_word));
                let cost = if self.warm_accounts.insert(addr) {
                    gas::ACCOUNT_COLD
                } else {
                    gas::ACCOUNT_WARM
                };
                self.charge(cost)?;
                let bal = self.state.balance(&addr);
                self.push(bal)?;
            }
            0x32 => {
                // ORIGIN
                self.charge(gas::BASE)?;
                let w = self.env.origin.to_word();
                self.push(w.to_u256())?;
            }
            0x33 => {
                // CALLER
                self.charge(gas::BASE)?;
                let w = self.env.caller.to_word();
                self.push(w.to_u256())?;
            }
            0x34 => {
                // CALLVALUE
                self.charge(gas::BASE)?;
                let v = self.env.call_value;
                self.push(v)?;
            }
            0x35 => {
                // CALLDATALOAD
                self.charge(gas::VERY_LOW)?;
                let offset = self.pop()?;
                let mut word = [0u8; 32];
                if let Some(off) = offset.to_u64() {
                    let off = off as usize;
                    for (i, byte) in word.iter_mut().enumerate() {
                        if let Some(&b) = self.env.calldata.get(off + i) {
                            *byte = b;
                        }
                    }
                }
                self.push(U256::from_be_bytes(&word))?;
            }
            0x36 => {
                // CALLDATASIZE
                self.charge(gas::BASE)?;
                let n = self.env.calldata.len();
                self.push(U256::from(n))?;
            }
            0x37 => {
                // CALLDATACOPY
                let dest = self.pop()?;
                let src = self.pop()?;
                let len = self.pop()?;
                let word_count = gas::words(len.to_u64().unwrap_or(u64::MAX).min(1 << 32));
                self.charge(gas::VERY_LOW + gas::COPY_WORD * word_count)?;
                let (doff, l) = self.mem_expand(&dest, &len)?;
                let soff = src.to_u64().unwrap_or(u64::MAX) as usize;
                for i in 0..l {
                    self.memory[doff + i] = self
                        .env
                        .calldata
                        .get(soff.saturating_add(i))
                        .copied()
                        .unwrap_or(0);
                }
            }
            0x38 => {
                // CODESIZE
                self.charge(gas::BASE)?;
                let n = self.code.len();
                self.push(U256::from(n))?;
            }
            0x39 => {
                // CODECOPY
                let dest = self.pop()?;
                let src = self.pop()?;
                let len = self.pop()?;
                let word_count = gas::words(len.to_u64().unwrap_or(u64::MAX).min(1 << 32));
                self.charge(gas::VERY_LOW + gas::COPY_WORD * word_count)?;
                let (doff, l) = self.mem_expand(&dest, &len)?;
                let soff = src.to_u64().unwrap_or(u64::MAX) as usize;
                for i in 0..l {
                    self.memory[doff + i] =
                        self.code.get(soff.saturating_add(i)).copied().unwrap_or(0);
                }
            }
            0x3a => {
                // GASPRICE
                self.charge(gas::BASE)?;
                let v = self.env.gas_price;
                self.push(v)?;
            }
            0x3d => {
                // RETURNDATASIZE — always 0 in our single-frame model
                self.charge(gas::BASE)?;
                self.push(U256::ZERO)?;
            }
            0x42 => {
                // TIMESTAMP
                self.charge(gas::BASE)?;
                let v = self.env.timestamp;
                self.push(U256::from(v))?;
            }
            0x43 => {
                // NUMBER
                self.charge(gas::BASE)?;
                let v = self.env.block_number;
                self.push(U256::from(v))?;
            }
            0x45 => {
                // GASLIMIT
                self.charge(gas::BASE)?;
                let v = self.env.gas_limit;
                self.push(U256::from(v))?;
            }
            0x46 => {
                // CHAINID
                self.charge(gas::BASE)?;
                let v = self.env.chain_id;
                self.push(U256::from(v))?;
            }
            0x47 => {
                // SELFBALANCE
                self.charge(gas::LOW)?;
                let bal = self.state.balance(&self.env.address);
                self.push(bal)?;
            }
            0x48 => {
                // BASEFEE
                self.charge(gas::BASE)?;
                let v = self.env.base_fee;
                self.push(v)?;
            }
            other => return Err(StepError::Exception(ExecError::InvalidOpcode(other))),
        }
        Ok(())
    }

    fn memory_flow(&mut self, op: u8) -> Result<Control, StepError> {
        match op {
            0x50 => {
                // POP
                self.charge(gas::BASE)?;
                self.pop()?;
            }
            0x51 => {
                // MLOAD
                self.charge(gas::VERY_LOW)?;
                let offset = self.pop()?;
                let (off, _) = self.mem_expand(&offset, &U256::from(32u64))?;
                let mut w = [0u8; 32];
                w.copy_from_slice(&self.memory[off..off + 32]);
                self.push(U256::from_be_bytes(&w))?;
            }
            0x52 => {
                // MSTORE
                self.charge(gas::VERY_LOW)?;
                let offset = self.pop()?;
                let value = self.pop()?;
                let (off, _) = self.mem_expand(&offset, &U256::from(32u64))?;
                self.memory[off..off + 32].copy_from_slice(&value.to_be_bytes());
            }
            0x53 => {
                // MSTORE8
                self.charge(gas::VERY_LOW)?;
                let offset = self.pop()?;
                let value = self.pop()?;
                let (off, _) = self.mem_expand(&offset, &U256::ONE)?;
                self.memory[off] = value.low_u64() as u8;
            }
            0x54 => {
                // SLOAD
                let key = H256::from_u256(&self.pop()?);
                let cost = if self.warm_slots.insert(key) {
                    gas::SLOAD_COLD
                } else {
                    gas::SLOAD_WARM
                };
                self.charge(cost)?;
                let v = self.writes.get(&key).copied();
                let v = v.unwrap_or_else(|| self.state.storage(&self.env.address, &key));
                self.push(v)?;
            }
            0x55 => {
                // SSTORE (simplified EIP-2200/2929/3529)
                let key = H256::from_u256(&self.pop()?);
                let value = self.pop()?;
                let original = self.state.storage(&self.env.address, &key);
                let current = self.writes.get(&key).copied().unwrap_or(original);
                let cold = self.warm_slots.insert(key);
                let mut cost = if cold { gas::SSTORE_COLD_SURCHARGE } else { 0 };
                cost += if value == current {
                    gas::SSTORE_WARM
                } else if current == original {
                    if original.is_zero() {
                        gas::SSTORE_SET
                    } else {
                        gas::SSTORE_RESET
                    }
                } else {
                    gas::SSTORE_WARM
                };
                self.charge(cost)?;
                // Refund when a previously nonzero slot is cleared.
                if !current.is_zero() && value.is_zero() {
                    self.refund += gas::SSTORE_CLEAR_REFUND;
                }
                self.writes.insert(key, value);
            }
            0x56 => {
                // JUMP
                self.charge(gas::MID)?;
                let dest = self.pop()?;
                self.jump(&dest)?;
            }
            0x57 => {
                // JUMPI
                self.charge(gas::HIGH)?;
                let dest = self.pop()?;
                let cond = self.pop()?;
                if !cond.is_zero() {
                    self.jump(&dest)?;
                }
            }
            0x58 => {
                // PC (pc was already advanced past this opcode)
                self.charge(gas::BASE)?;
                let v = self.pc - 1;
                self.push(U256::from(v))?;
            }
            0x59 => {
                // MSIZE
                self.charge(gas::BASE)?;
                let n = self.memory.len();
                self.push(U256::from(n))?;
            }
            0x5a => {
                // GAS
                self.charge(gas::BASE)?;
                let g = self.gas_remaining;
                self.push(U256::from(g))?;
            }
            0x5b => {
                // JUMPDEST
                self.charge(gas::JUMPDEST)?;
            }
            _ => unreachable!(),
        }
        Ok(Control::Continue)
    }

    fn jump(&mut self, dest: &U256) -> Result<(), StepError> {
        let d = dest
            .to_u64()
            .ok_or(StepError::Exception(ExecError::BadJumpDestination))? as usize;
        if !self.valid_jumpdests.contains(&d) {
            return Err(StepError::Exception(ExecError::BadJumpDestination));
        }
        self.pc = d;
        Ok(())
    }

    fn log(&mut self, op: u8) -> Result<(), StepError> {
        let topic_count = (op - 0xa0) as usize;
        let offset = self.pop()?;
        let len = self.pop()?;
        let data_len = len.to_u64().unwrap_or(u64::MAX).min(1 << 32);
        self.charge(gas::LOG + gas::LOG_TOPIC * topic_count as u64 + gas::LOG_DATA * data_len)?;
        let mut topics = Vec::with_capacity(topic_count);
        for _ in 0..topic_count {
            topics.push(H256::from_u256(&self.pop()?));
        }
        let (off, l) = self.mem_expand(&offset, &len)?;
        let data = self.memory[off..off + l].to_vec();
        self.logs.push(LogEntry {
            address: self.env.address,
            topics,
            data,
        });
        Ok(())
    }
}

enum StepError {
    OutOfGas,
    Exception(ExecError),
}

/// Scans code for valid JUMPDEST positions, skipping PUSH immediates.
fn scan_jumpdests(code: &[u8]) -> HashSet<usize> {
    let mut out = HashSet::new();
    let mut i = 0;
    while i < code.len() {
        let op = code[i];
        if op == 0x5b {
            out.insert(i);
        }
        if (0x60..=0x7f).contains(&op) {
            i += (op - 0x5f) as usize;
        }
        i += 1;
    }
    out
}

/// Two's-complement helpers for the signed opcodes.
fn is_neg(v: &U256) -> bool {
    v.bit(255)
}

fn neg(v: &U256) -> U256 {
    (!*v).wrapping_add(&U256::ONE)
}

fn scmp(a: &U256, b: &U256) -> std::cmp::Ordering {
    match (is_neg(a), is_neg(b)) {
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        _ => a.cmp(b),
    }
}

fn sdiv(a: &U256, b: &U256) -> U256 {
    if b.is_zero() {
        return U256::ZERO;
    }
    let (abs_a, sa) = if is_neg(a) {
        (neg(a), true)
    } else {
        (*a, false)
    };
    let (abs_b, sb) = if is_neg(b) {
        (neg(b), true)
    } else {
        (*b, false)
    };
    let q = abs_a.div_rem(&abs_b).0;
    if sa ^ sb {
        neg(&q)
    } else {
        q
    }
}

fn smod(a: &U256, b: &U256) -> U256 {
    if b.is_zero() {
        return U256::ZERO;
    }
    let (abs_a, sa) = if is_neg(a) {
        (neg(a), true)
    } else {
        (*a, false)
    };
    let abs_b = if is_neg(b) { neg(b) } else { *b };
    let r = abs_a.div_rem(&abs_b).1;
    if sa && !r.is_zero() {
        neg(&r)
    } else {
        r
    }
}

fn sar(shift: &U256, v: &U256) -> U256 {
    let negative = is_neg(v);
    match shift.to_u64() {
        Some(s) if s < 256 => {
            let shifted = v.shr(s as u32);
            if negative && s > 0 {
                // Fill the vacated top bits with ones.
                let mask = U256::MAX.shl(256 - s as u32);
                shifted | mask
            } else {
                shifted
            }
        }
        _ => {
            if negative {
                U256::MAX
            } else {
                U256::ZERO
            }
        }
    }
}

/// SIGNEXTEND: extend the sign of the (k+1)-byte value x to 32 bytes.
fn signextend(k: &U256, x: &U256) -> U256 {
    match k.to_u64() {
        Some(kk) if kk < 31 => {
            let bit_index = (8 * (kk + 1) - 1) as usize;
            if x.bit(bit_index) {
                *x | U256::MAX.shl(bit_index as u32 + 1)
            } else {
                *x & !(U256::MAX.shl(bit_index as u32 + 1))
            }
        }
        _ => *x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_env() -> Env {
        Env {
            address: H160::from_slice(&[0x11; 20]),
            caller: H160::from_slice(&[0x22; 20]),
            origin: H160::from_slice(&[0x22; 20]),
            call_value: U256::ZERO,
            calldata: Vec::new(),
            gas_price: U256::from(1_000_000_000u64),
            block_number: 1,
            timestamp: 1_700_000_000,
            gas_limit: 30_000_000,
            chain_id: 11155111,
            base_fee: U256::from(1_000_000_000u64),
        }
    }

    fn run(code: &[u8]) -> ExecResult {
        run_with(code, test_env(), 1_000_000)
    }

    fn run_with(code: &[u8], env: Env, gas: u64) -> ExecResult {
        Interpreter::new(&State::new(), env, code, gas).run()
    }

    fn ret_top() -> Vec<u8> {
        // MSTORE result at 0 and RETURN 32 bytes: PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
        vec![0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3]
    }

    fn output_u256(r: &ExecResult) -> U256 {
        assert!(r.is_success(), "{:?}", r.outcome);
        U256::from_be_slice(&r.output)
    }

    #[test]
    fn add_and_return() {
        // PUSH1 2 PUSH1 3 ADD → 5
        let mut code = vec![0x60, 0x02, 0x60, 0x03, 0x01];
        code.extend(ret_top());
        let r = run(&code);
        assert_eq!(output_u256(&r), U256::from(5u64));
        // gas: 3 + 3 + 3 (add) + 3+3 (mstore pushes... count below)
        assert!(r.gas_used > 0);
    }

    #[test]
    fn arithmetic_ops() {
        // 10 / 3 = 3
        let mut code = vec![0x60, 0x03, 0x60, 0x0a, 0x04];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::from(3u64));
        // 10 % 3 = 1
        let mut code = vec![0x60, 0x03, 0x60, 0x0a, 0x06];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::from(1u64));
        // div by zero = 0
        let mut code = vec![0x60, 0x00, 0x60, 0x0a, 0x04];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::ZERO);
        // 2^10 = 1024 (EXP pops base then exponent: stack [exp, base] top=base)
        let mut code = vec![0x60, 0x0a, 0x60, 0x02, 0x0a];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::from(1024u64));
    }

    #[test]
    fn signed_ops() {
        let minus_one = U256::MAX;
        // SDIV: -4 / 2 = -2
        let minus_four = neg(&U256::from(4u64));
        let mut code = vec![0x60, 0x02];
        code.push(0x7f);
        code.extend(minus_four.to_be_bytes());
        code.push(0x05);
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), neg(&U256::from(2u64)));
        // SLT: -1 < 1
        let mut code = vec![0x60, 0x01];
        code.push(0x7f);
        code.extend(minus_one.to_be_bytes());
        code.push(0x12);
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::ONE);
        // SAR: -8 >> 1 = -4
        let minus_eight = neg(&U256::from(8u64));
        let mut code = vec![0x7f];
        code.extend(minus_eight.to_be_bytes());
        code.extend([0x60, 0x01, 0x1d]);
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), neg(&U256::from(4u64)));
    }

    #[test]
    fn signextend_byte0() {
        // signextend(0, 0xff) = -1
        let mut code = vec![0x60, 0xff, 0x60, 0x00, 0x0b];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::MAX);
        // signextend(0, 0x7f) = 0x7f
        let mut code = vec![0x60, 0x7f, 0x60, 0x00, 0x0b];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::from(0x7fu64));
    }

    #[test]
    fn storage_roundtrip_and_gas() {
        // SSTORE slot1 = 0x42 then SLOAD slot1
        let code = vec![
            0x60, 0x42, 0x60, 0x01, 0x55, // SSTORE(1, 0x42)
            0x60, 0x01, 0x54, // SLOAD(1)
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let r = run(&code);
        assert_eq!(output_u256(&r), U256::from(0x42u64));
        // Cold SSTORE-set, then a warm SLOAD of the same slot, plus six
        // pushes, one MSTORE and its one-word memory expansion.
        let expect = gas::SSTORE_COLD_SURCHARGE
            + gas::SSTORE_SET
            + gas::SLOAD_WARM
            + 7 * gas::VERY_LOW
            + gas::memory_cost(1);
        assert_eq!(r.gas_used, expect);
        assert_eq!(r.gas_used, 22_224);
        assert_eq!(
            r.storage.into_iter().collect::<Vec<_>>(),
            vec![(H256::from_u256(&U256::ONE), U256::from(0x42u64))]
        );
    }

    #[test]
    fn sstore_there_and_back_prices_current_against_original() {
        // SSTORE(1, y) then SSTORE(1, x), from a state holding slot 1 = x.
        let key = H256::from_u256(&U256::ONE);
        let there_and_back = |x: u8, y: u8| {
            let mut state = State::new();
            state.set_storage(&test_env().address, &key, U256::from(x as u64));
            let code = vec![0x60, y, 0x60, 0x01, 0x55, 0x60, x, 0x60, 0x01, 0x55, 0x00];
            let r = Interpreter::new(&state, test_env(), &code, 100_000).run();
            assert!(r.is_success());
            // The frame never touched the state it read.
            assert_eq!(
                state.storage(&test_env().address, &key),
                U256::from(x as u64)
            );
            assert_eq!(r.storage.get(&key), Some(&U256::from(x as u64)));
            (r.gas_used, r.refund)
        };
        // x = 5 ≠ 0: the first write resets an original slot; the second
        // finds current (7) ≠ original (5) and pays only the warm price.
        let pushes = 4 * gas::VERY_LOW;
        assert_eq!(
            there_and_back(5, 7),
            (
                pushes + gas::SSTORE_COLD_SURCHARGE + gas::SSTORE_RESET + gas::SSTORE_WARM,
                0
            )
        );
        assert_eq!(there_and_back(5, 7).0, 5_112);
        // x = 0: the first write sets a fresh slot; clearing it again is
        // warm and earns the clearing refund.
        assert_eq!(
            there_and_back(0, 7),
            (
                pushes + gas::SSTORE_COLD_SURCHARGE + gas::SSTORE_SET + gas::SSTORE_WARM,
                gas::SSTORE_CLEAR_REFUND
            )
        );
        assert_eq!(there_and_back(0, 7).0, 22_212);
    }

    #[test]
    fn sstore_refund_on_clear() {
        // Pre-set slot 1 = 5 in the state, then SSTORE(1, 0).
        let mut state = State::new();
        let addr = test_env().address;
        state.set_storage(&addr, &H256::from_u256(&U256::ONE), U256::from(5u64));
        let code = vec![0x60, 0x00, 0x60, 0x01, 0x55, 0x00];
        let r = Interpreter::new(&state, test_env(), &code, 100_000).run();
        assert!(r.is_success());
        assert_eq!(r.refund, gas::SSTORE_CLEAR_REFUND);
    }

    #[test]
    fn jump_and_jumpi() {
        // PUSH1 dest JUMP; INVALID; JUMPDEST PUSH1 7 ...return
        let code = vec![
            0x60, 0x04, 0x56, // JUMP to 4
            0xfe, // INVALID (skipped)
            0x5b, // JUMPDEST at 4
            0x60, 0x07, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        assert_eq!(output_u256(&run(&code)), U256::from(7u64));
    }

    #[test]
    fn bad_jump_is_exception() {
        let code = vec![0x60, 0x03, 0x56, 0x00]; // JUMP to 3 (not a JUMPDEST)
        let r = run(&code);
        assert_eq!(r.outcome, Outcome::Exception(ExecError::BadJumpDestination));
        assert_eq!(r.gas_used, 1_000_000); // consumes all gas
    }

    #[test]
    fn jump_into_push_data_rejected() {
        // PUSH2 0x5b00 — the 0x5b at offset 1 is push data, not a JUMPDEST.
        let code = vec![0x60, 0x04, 0x56, 0x00, 0x61, 0x5b, 0x00];
        let r = run(&code);
        assert!(matches!(
            r.outcome,
            Outcome::Exception(ExecError::BadJumpDestination)
        ));
    }

    #[test]
    fn calldata_ops() {
        let mut env = test_env();
        env.calldata = vec![0xaa, 0xbb, 0xcc, 0xdd];
        // CALLDATASIZE
        let mut code = vec![0x36];
        code.extend(ret_top());
        let r = run_with(&code, env.clone(), 100_000);
        assert_eq!(output_u256(&r), U256::from(4u64));
        // CALLDATALOAD(0) — zero padded on the right
        let mut code = vec![0x60, 0x00, 0x35];
        code.extend(ret_top());
        let r = run_with(&code, env.clone(), 100_000);
        let mut expect = [0u8; 32];
        expect[..4].copy_from_slice(&[0xaa, 0xbb, 0xcc, 0xdd]);
        assert_eq!(output_u256(&r), U256::from_be_bytes(&expect));
        // CALLDATACOPY then return the memory
        let code = vec![
            0x60, 0x04, 0x60, 0x00, 0x60, 0x00, 0x37, // calldatacopy(0,0,4)
            0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let r = run_with(&code, env, 100_000);
        assert!(r.is_success());
        assert_eq!(&r.output[..4], &[0xaa, 0xbb, 0xcc, 0xdd]);
    }

    #[test]
    fn keccak_of_memory() {
        // store "abc" via MSTORE8 ×3 then hash 3 bytes
        let code = vec![
            0x60, b'a', 0x60, 0x00, 0x53, // mstore8(0,'a')
            0x60, b'b', 0x60, 0x01, 0x53, 0x60, b'c', 0x60, 0x02, 0x53, 0x60, 0x03, 0x60, 0x00,
            0x20, // keccak256(0,3)
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let r = run(&code);
        assert_eq!(r.output, keccak256(b"abc").to_vec());
    }

    #[test]
    fn env_opcodes() {
        let env = test_env();
        // CALLER
        let mut code = vec![0x33];
        code.extend(ret_top());
        let r = run_with(&code, env.clone(), 100_000);
        assert_eq!(H160::from_word(&H256::from_slice(&r.output)), env.caller);
        // CHAINID
        let mut code = vec![0x46];
        code.extend(ret_top());
        let r = run_with(&code, env.clone(), 100_000);
        assert_eq!(output_u256(&r), U256::from(11155111u64));
        // NUMBER / TIMESTAMP
        let mut code = vec![0x43];
        code.extend(ret_top());
        assert_eq!(
            output_u256(&run_with(&code, env.clone(), 100_000)),
            U256::ONE
        );
    }

    #[test]
    fn logs_collected_on_success_only() {
        // LOG1 with topic 0x99, empty data, then STOP
        let log_then_stop = vec![0x60, 0x99, 0x60, 0x00, 0x60, 0x00, 0xa1, 0x00];
        let r = run(&log_then_stop);
        assert!(r.is_success());
        assert_eq!(r.logs.len(), 1);
        assert_eq!(r.logs[0].topics[0].to_u256(), U256::from(0x99u64));

        // Same log followed by REVERT discards it.
        let log_then_revert = vec![
            0x60, 0x99, 0x60, 0x00, 0x60, 0x00, 0xa1, 0x60, 0x00, 0x60, 0x00, 0xfd,
        ];
        let r = run(&log_then_revert);
        assert_eq!(r.outcome, Outcome::Revert);
        assert!(r.logs.is_empty());
    }

    #[test]
    fn revert_returns_payload_and_unused_gas() {
        // MSTORE8(0, 0x42); REVERT(0, 1)
        let code = vec![0x60, 0x42, 0x60, 0x00, 0x53, 0x60, 0x01, 0x60, 0x00, 0xfd];
        let r = run(&code);
        assert_eq!(r.outcome, Outcome::Revert);
        assert_eq!(r.output, vec![0x42]);
        assert!(r.gas_used < 100); // only what was executed
    }

    #[test]
    fn out_of_gas_consumes_everything() {
        // Infinite loop: JUMPDEST PUSH1 0 JUMP
        let code = vec![0x5b, 0x60, 0x00, 0x56];
        let r = run_with(&code, test_env(), 10_000);
        assert_eq!(r.outcome, Outcome::OutOfGas);
        assert_eq!(r.gas_used, 10_000);
    }

    #[test]
    fn stack_underflow_detected() {
        let r = run(&[0x01]); // ADD on empty stack
        assert_eq!(r.outcome, Outcome::Exception(ExecError::StackUnderflow));
    }

    #[test]
    fn stack_overflow_detected() {
        // Push 1 then DUP1 in a loop beyond 1024: JUMPDEST DUP1 PUSH1 0 JUMP
        let code = vec![0x60, 0x01, 0x5b, 0x80, 0x60, 0x02, 0x56];
        let r = run_with(&code, test_env(), 10_000_000);
        assert_eq!(r.outcome, Outcome::Exception(ExecError::StackOverflow));
    }

    #[test]
    fn push_dup_swap() {
        // PUSH1 1 PUSH1 2 SWAP1 → top is 1; DUP2 → top is 2
        let mut code = vec![0x60, 0x01, 0x60, 0x02, 0x90, 0x81];
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::from(2u64));
    }

    #[test]
    fn push32_full_word() {
        let mut code = vec![0x7f];
        code.extend([0xabu8; 32]);
        code.extend(ret_top());
        assert_eq!(output_u256(&run(&code)), U256::from_be_bytes(&[0xab; 32]));
    }

    #[test]
    fn truncated_push_reads_zero() {
        // PUSH2 with only one byte of immediate left: value = 0xaa00.
        let code = vec![0x61, 0xaa];
        let r = run(&code);
        assert!(r.is_success()); // implicit stop at end
    }

    #[test]
    fn memory_expansion_gas_charged() {
        // MSTORE at offset 0 vs offset 10000 must differ in gas by the
        // quadratic expansion cost.
        let near = vec![0x60, 0x01, 0x60, 0x00, 0x52, 0x00];
        let far = vec![0x60, 0x01, 0x61, 0x27, 0x10, 0x52, 0x00];
        let g_near = run(&near).gas_used;
        let g_far = run(&far).gas_used;
        let words = gas::words(10_000 + 32);
        let expect_delta = gas::memory_cost(words) - gas::memory_cost(1);
        // far also pays one extra byte of PUSH2 vs PUSH1 (same 3 gas).
        assert_eq!(g_far - g_near, expect_delta);
    }

    #[test]
    fn balance_cold_then_warm() {
        let mut state = State::new();
        let who = H160::from_slice(&[0x77; 20]);
        state.credit(&who, &U256::from(123u64)).unwrap();
        // BALANCE(who) twice; return second result.
        let mut code = vec![0x73];
        code.extend(who.0);
        code.push(0x31); // cold
        code.push(0x50); // pop
        code.push(0x73);
        code.extend(who.0);
        code.push(0x31); // warm
        code.extend(ret_top());
        let r = Interpreter::new(&state, test_env(), &code, 100_000).run();
        assert_eq!(output_u256(&r), U256::from(123u64));
        // cost contains one cold (2600) + one warm (100)
        assert!(r.gas_used > 2_700);
        assert!(r.gas_used < 2_900);
    }
}
