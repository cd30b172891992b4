//! World state: the account map (nonce, balance, code, storage). The EVM
//! only reads it; the chain commits a frame's writes when the frame
//! succeeds (see [`crate::chain`]).

use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};
use std::collections::HashMap;

/// One account's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Account {
    /// Transaction count for EOAs / creation count for contracts.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Contract runtime bytecode (empty for EOAs).
    pub code: Vec<u8>,
    /// Contract storage.
    pub storage: HashMap<H256, U256>,
}

/// Errors from balance mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// Debit exceeds balance.
    InsufficientBalance,
    /// Balance overflow on credit (cannot happen with a sane genesis but
    /// checked anyway: wei accounting must never wrap).
    BalanceOverflow,
}

impl core::fmt::Display for StateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StateError::InsufficientBalance => write!(f, "insufficient balance"),
            StateError::BalanceOverflow => write!(f, "balance overflow"),
        }
    }
}

impl std::error::Error for StateError {}

/// The full world state.
#[derive(Debug, Clone, Default)]
pub struct State {
    accounts: HashMap<H160, Account>,
}

impl State {
    /// An empty state.
    pub fn new() -> State {
        State::default()
    }

    /// Read-only account access (zero-valued default view for absent
    /// accounts).
    pub fn account(&self, address: &H160) -> Option<&Account> {
        self.accounts.get(address)
    }

    /// Mutable account access, creating an empty account on first touch.
    pub fn account_mut(&mut self, address: &H160) -> &mut Account {
        self.accounts.entry(*address).or_default()
    }

    /// Balance (zero for absent accounts).
    pub fn balance(&self, address: &H160) -> U256 {
        self.accounts
            .get(address)
            .map(|a| a.balance)
            .unwrap_or(U256::ZERO)
    }

    /// Nonce (zero for absent accounts).
    pub fn nonce(&self, address: &H160) -> u64 {
        self.accounts.get(address).map(|a| a.nonce).unwrap_or(0)
    }

    /// Contract code (empty for absent accounts / EOAs).
    pub fn code(&self, address: &H160) -> &[u8] {
        self.accounts
            .get(address)
            .map(|a| a.code.as_slice())
            .unwrap_or(&[])
    }

    /// Credits `amount` wei.
    pub fn credit(&mut self, address: &H160, amount: &U256) -> Result<(), StateError> {
        let acct = self.account_mut(address);
        acct.balance = acct
            .balance
            .checked_add(amount)
            .ok_or(StateError::BalanceOverflow)?;
        Ok(())
    }

    /// Debits `amount` wei, failing if the balance is insufficient.
    pub fn debit(&mut self, address: &H160, amount: &U256) -> Result<(), StateError> {
        let acct = self.account_mut(address);
        acct.balance = acct
            .balance
            .checked_sub(amount)
            .ok_or(StateError::InsufficientBalance)?;
        Ok(())
    }

    /// Moves `amount` wei between accounts.
    pub fn transfer(&mut self, from: &H160, to: &H160, amount: &U256) -> Result<(), StateError> {
        self.debit(from, amount)?;
        self.credit(to, amount)
            .expect("credit cannot overflow after debit of same supply");
        Ok(())
    }

    /// Increments an account's nonce.
    pub fn bump_nonce(&mut self, address: &H160) {
        self.account_mut(address).nonce += 1;
    }

    /// Reads contract storage.
    pub fn storage(&self, address: &H160, key: &H256) -> U256 {
        self.accounts
            .get(address)
            .and_then(|a| a.storage.get(key))
            .copied()
            .unwrap_or(U256::ZERO)
    }

    /// Writes contract storage (deleting zero values to keep maps compact).
    pub fn set_storage(&mut self, address: &H160, key: &H256, value: U256) {
        let acct = self.account_mut(address);
        if value.is_zero() {
            acct.storage.remove(key);
        } else {
            acct.storage.insert(*key, value);
        }
    }

    /// Deletes an account outright (undoing a failed creation that made it).
    pub fn remove_account(&mut self, address: &H160) {
        self.accounts.remove(address);
    }

    /// Total wei across all accounts (conservation checks in tests).
    pub fn total_supply(&self) -> U256 {
        let mut total = U256::ZERO;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "checked_add is commutative and associative; the sum is order-independent"
        )]
        for acct in self.accounts.values() {
            total = total
                .checked_add(&acct.balance)
                .expect("total supply fits in U256");
        }
        total
    }

    /// Number of existing accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Iterates over all (address, account) pairs in address order, so
    /// callers can fold the walk into a digest without re-sorting.
    pub fn iter(&self) -> impl Iterator<Item = (&H160, &Account)> {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut pairs: Vec<(&H160, &Account)> = self.accounts.iter().collect();
        pairs.sort_by_key(|(address, _)| **address);
        pairs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> H160 {
        H160::from_slice(&[b; 20])
    }

    #[test]
    fn credit_debit_transfer() {
        let mut st = State::new();
        st.credit(&addr(1), &U256::from(100u64)).unwrap();
        st.transfer(&addr(1), &addr(2), &U256::from(40u64)).unwrap();
        assert_eq!(st.balance(&addr(1)), U256::from(60u64));
        assert_eq!(st.balance(&addr(2)), U256::from(40u64));
        assert_eq!(
            st.debit(&addr(2), &U256::from(41u64)),
            Err(StateError::InsufficientBalance)
        );
        assert_eq!(st.total_supply(), U256::from(100u64));
    }

    #[test]
    fn transfer_preserves_supply() {
        let mut st = State::new();
        st.credit(&addr(1), &U256::from_u128(10u128.pow(20)))
            .unwrap();
        for i in 2..10u8 {
            st.transfer(&addr(1), &addr(i), &U256::from(12345u64))
                .unwrap();
        }
        assert_eq!(st.total_supply(), U256::from_u128(10u128.pow(20)));
    }

    #[test]
    fn storage_zero_is_deleted() {
        let mut st = State::new();
        let key = H256::from_u256(&U256::ONE);
        st.set_storage(&addr(3), &key, U256::from(9u64));
        assert_eq!(st.storage(&addr(3), &key), U256::from(9u64));
        st.set_storage(&addr(3), &key, U256::ZERO);
        assert_eq!(st.storage(&addr(3), &key), U256::ZERO);
        assert!(st.account(&addr(3)).unwrap().storage.is_empty());
    }

    #[test]
    fn remove_account_forgets_it() {
        let mut st = State::new();
        st.credit(&addr(1), &U256::from(50u64)).unwrap();
        st.credit(&addr(2), &U256::ZERO).unwrap();
        assert_eq!(st.account_count(), 2);
        st.remove_account(&addr(2));
        assert!(st.account(&addr(2)).is_none());
        assert_eq!(st.account_count(), 1);
        assert_eq!(st.balance(&addr(1)), U256::from(50u64));
    }

    #[test]
    fn nonce_bump() {
        let mut st = State::new();
        assert_eq!(st.nonce(&addr(9)), 0);
        st.bump_nonce(&addr(9));
        st.bump_nonce(&addr(9));
        assert_eq!(st.nonce(&addr(9)), 2);
    }
}
