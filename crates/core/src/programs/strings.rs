//! Dynamic regular-language membership: compile any [`Dfa`] into a
//! Dyn-FO⁺ update program over the string structure
//! ⟨{0..n−1}, ≤, (S_c)_{c∈Σ}⟩ (Schmidt–Schwentick–Tantau–Vortmeier–
//! Zeume 2021, monoid/interval decomposition, specialized to FO).
//!
//! The auxiliary state is the *interval table*, one binary relation per
//! pair of DFA states `q, r`:
//!
//! ```text
//! INT_q_r(i, j)  ≡  reading positions i..=j (gaps skipped) from
//!                   DFA state q ends in state r        (i ≤ j)
//! ```
//!
//! — the state-transformation monoid element of every maintained
//! interval at once, with the states in the relation names rather than
//! the universe. A point edit at position `p` touches exactly the
//! intervals containing `p`, and each is recomposed from two untouched
//! sub-intervals and the edited letter:
//!
//! ```text
//! INT'_q_r(i,j) ≡ ¬(i ≤ p ≤ j) ∧ INT_q_r(i,j)
//!               ∨ i ≤ p ≤ j ∧ ⋁_{q₁} ( L_q_q₁(i) ∧ R_δc(q₁)_r(j) )
//! L_q_q₁(i) ≡ (i = p ∧ q = q₁) ∨ ∃m (succ(m,p) ∧ INT_q_q₁(i,m))
//! R_q₂_r(j) ≡ (j = p ∧ q₂ = r) ∨ ∃s (succ(p,s) ∧ INT_q₂_r(s,j))
//! ```
//!
//! with `δ_c` the edited symbol's transition function, unrolled when
//! the program is built: `q = q₁` and `δ_c(q₁)` are constants, so no
//! rule quantifies a state and every rule is a formula over two
//! positions that compiles to word kernels. Deletion composes the
//! identity at `p` instead, guarded on `S_c(p)` actually holding so a
//! mismatched delete is a no-op. Updates are constant quantifier depth
//! — the paper's parallel claim — and the empty string initializes
//! every interval to the identity (`INT_q_q(i, j)` for every `i ≤ j`), a
//! genuinely precomputed (Dyn-FO⁺) structure.
//!
//! An edit's work is the `|Q|²` tables' intervals that contain `p`:
//! Θ(|Q|²·n²/64) words per edit.
//!
//! **Semantics: overwrite.** `ins(S_c, p)` *sets* position `p` to `c`,
//! deleting any other symbol's copy at `p` in the same simultaneous
//! update — an editor-buffer write, not a set union. `del(S_c, p)`
//! clears `p` iff it currently carries `c`. [`set_request`] names this
//! point-edit surface. Bulk δ requests route through the machine's
//! per-tuple fallback (the rules are guarded, not Grow/Shrink), so the
//! bulk path is supported with stream-identical state — the
//! oracle-differential suites drive it.

use crate::program::DynFoProgram;
use crate::request::{Request, RequestKind};
use dynfo_automata::{Dfa, State};
use dynfo_logic::formula::{and, eq, exists, le, lit, not, or, rel, v, Term};
use dynfo_logic::strings::{succ, sym_rel};
use dynfo_logic::{Elem, Tuple};

/// The interval relation for the DFA states `q`, `r`:
/// `INT_q_r(i, j)` holds iff reading positions `i..=j` from `q` ends in
/// `r`.
pub fn int_rel(q: State, r: State) -> String {
    format!("INT_{q}_{r}")
}

/// Compile `dfa` into a Dyn-FO⁺ program deciding membership of the
/// current string (gaps skipped) in `L(dfa)`. `name` labels the
/// program in reports.
pub fn dfa_program(name: &str, dfa: &Dfa) -> DynFoProgram {
    let states: Vec<State> = (0..dfa.num_states()).collect();
    let alphabet: Vec<char> = dfa.alphabet().to_vec();

    let mut b = DynFoProgram::builder(name);
    for &c in &alphabet {
        b = b.input_relation(&sym_rel(c), 1);
    }
    for &q in &states {
        for &r in &states {
            b = b.aux_relation(&int_rel(q, r), 2);
        }
    }

    // Dyn-FO⁺ init: the empty string, i.e. every interval i ≤ j is the
    // identity transform.
    let identities: Vec<String> = states.iter().map(|&q| int_rel(q, q)).collect();
    b = b.precomputed(move |vocab, n| {
        let mut st = dynfo_logic::Structure::empty(std::sync::Arc::clone(vocab), n);
        for name in &identities {
            let int = st.rel_mut(name);
            for i in 0..n {
                for j in i..n {
                    int.insert(Tuple::pair(i, j));
                }
            }
        }
        st
    });

    // Positions: i, j free; the edit position is ?0.
    let p = || Term::Param(0);
    let inside = || and([le(v("i"), p()), le(p(), v("j"))]);
    let int = |q, r, i, j| rel(&int_rel(q, r), [i, j]);
    let copy_int = |q, r| int(q, r, v("i"), v("j"));
    // L_q_q1(i): the transform of the part strictly left of p.
    let left = |q: State, q1: State| {
        let before = exists(["pm"], and([succ(v("pm"), p()), int(q, q1, v("i"), v("pm"))]));
        if q == q1 {
            or([eq(v("i"), p()), before])
        } else {
            before
        }
    };
    // R_q2_r(j): the transform of the part strictly right of p.
    let right = |q2: State, r: State| {
        let after = exists(["ps"], and([succ(p(), v("ps")), int(q2, r, v("ps"), v("j"))]));
        if q2 == r {
            or([eq(v("j"), p()), after])
        } else {
            after
        }
    };
    // Recompose an inside interval around p, reading p as `step(q1)`.
    let recompose = |q: State, r: State, step: &dyn Fn(State) -> State| {
        or(states.iter().map(|&q1| and([left(q, q1), right(step(q1), r)])))
    };

    let int_vars = ["i", "j"];
    for (sym_id, &c) in alphabet.iter().enumerate() {
        let sc = sym_rel(c);
        // ins(S_c, p): set position p to c (overwrite).
        b = b.on(
            RequestKind::ins(&sc),
            &sc,
            &["x"],
            rel(&sc, [v("x")]) | eq(v("x"), p()),
        );
        for &d in alphabet.iter().filter(|&&d| d != c) {
            let sd = sym_rel(d);
            b = b.on(
                RequestKind::ins(&sc),
                &sd,
                &["x"],
                rel(&sd, [v("x")]) & !eq(v("x"), p()),
            );
        }
        // del(S_c, p): clear position p iff it carries c. The closed
        // guard S_c(?0) keeps a mismatched delete a no-op and gets the
        // efficient Guarded classification.
        b = b.on(
            RequestKind::del(&sc),
            &sc,
            &["x"],
            rel(&sc, [v("x")]) & !eq(v("x"), p()),
        );
        for &q in &states {
            for &r in &states {
                let target = int_rel(q, r);
                let written = recompose(q, r, &|q1| dfa.step(q1, sym_id));
                b = b.on(
                    RequestKind::ins(&sc),
                    &target,
                    &int_vars,
                    (not(inside()) & copy_int(q, r)) | (inside() & written),
                );
                let cleared = recompose(q, r, &|q1| q1);
                b = b.on(
                    RequestKind::del(&sc),
                    &target,
                    &int_vars,
                    (not(rel(&sc, [p()])) & copy_int(q, r))
                        | (rel(&sc, [p()])
                            & ((not(inside()) & copy_int(q, r)) | (inside() & cleared))),
                );
            }
        }
    }

    // Membership: the whole-string interval [min, max] maps the start
    // state into an accepting state.
    let start = dfa.start();
    let whole = |f| rel(&int_rel(start, f), [Term::Min, Term::Max]);
    let accepting = states.iter().filter(|&&f| dfa.is_accepting(f));
    let query = or(accepting.map(|&f| whole(f)));
    // in_state(q): general operation asking which state the run ends in.
    let named = or(states
        .iter()
        .map(|&f| and([eq(Term::Param(0), lit(Elem::from(f))), whole(f)])));
    b.query(query).named_query("in_state", named).build()
}

/// The point-edit request for "set position `pos` to `sym`": one
/// `ins(S_sym, pos)` whose update rules overwrite whatever was there.
/// `None` clears the position and needs the symbol currently held
/// (`current`), since `del(S_c, p)` is guarded on `S_c(p)`; clearing an
/// already-empty position yields no request.
pub fn set_request(pos: Elem, sym: Option<char>, current: Option<char>) -> Option<Request> {
    match (sym, current) {
        (Some(c), _) => Some(Request::ins(&sym_rel(c), [pos])),
        (None, Some(c)) => Some(Request::del(&sym_rel(c), [pos])),
        (None, None) => None,
    }
}

/// `count_mod` instance: #`target` ≡ r (mod m) over `alphabet`.
pub fn count_mod_program(alphabet: &[char], target: char, m: u8, r: u8) -> DynFoProgram {
    dfa_program("strings::count_mod", &dynfo_automata::dfa::count_mod(alphabet, target, m, r))
}

/// `contains_substring` instance (KMP automaton) over `alphabet`.
pub fn contains_substring_program(alphabet: &[char], pattern: &str) -> DynFoProgram {
    dfa_program(
        "strings::contains_substring",
        &dynfo_automata::dfa::contains_substring(alphabet, pattern),
    )
}

/// `a*b*` instance: the 3-state dead-state DFA.
pub fn a_star_b_star_program() -> DynFoProgram {
    dfa_program("strings::a_star_b_star", &dynfo_automata::dfa::a_star_b_star())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DynFoMachine;
    use dynfo_automata::dfa::{a_star_b_star, count_mod};

    /// Apply `set(pos, sym)` to machine and shadow buffer together.
    fn set(
        machine: &mut DynFoMachine,
        shadow: &mut [Option<char>],
        pos: Elem,
        sym: Option<char>,
    ) {
        if let Some(req) = set_request(pos, sym, shadow[pos as usize]) {
            machine.apply(&req).unwrap();
        }
        shadow[pos as usize] = sym;
    }

    fn oracle_accepts(dfa: &Dfa, shadow: &[Option<char>]) -> bool {
        let syms = shadow
            .iter()
            .filter_map(|s| s.and_then(|c| dfa.symbol(c)));
        dfa.is_accepting(dfa.run(syms))
    }

    #[test]
    fn count_mod_tracks_the_dfa_oracle() {
        let dfa = count_mod(&['a', 'b'], 'a', 3, 1);
        let n = 12u32;
        let mut m = DynFoMachine::new(dfa_program("count_mod", &dfa), n);
        let mut shadow = vec![None; n as usize];
        let edits: [(Elem, Option<char>); 9] = [
            (0, Some('a')),
            (3, Some('b')),
            (5, Some('a')),
            (5, Some('b')), // overwrite a → b
            (7, Some('a')),
            (0, None),      // clear
            (3, Some('a')), // overwrite b → a
            (11, Some('a')),
            (7, None),
        ];
        for (pos, sym) in edits {
            set(&mut m, &mut shadow, pos, sym);
            assert_eq!(
                m.query().unwrap(),
                oracle_accepts(&dfa, &shadow),
                "after set({pos}, {sym:?}); buffer {shadow:?}"
            );
        }
    }

    #[test]
    fn a_star_b_star_rejects_interleavings() {
        let dfa = a_star_b_star();
        let n = 8u32;
        let mut m = DynFoMachine::new(a_star_b_star_program(), n);
        let mut shadow = vec![None; n as usize];
        assert!(m.query().unwrap(), "empty string is in a*b*");
        set(&mut m, &mut shadow, 1, Some('a'));
        set(&mut m, &mut shadow, 4, Some('b'));
        assert!(m.query().unwrap(), "ab ∈ a*b*");
        set(&mut m, &mut shadow, 6, Some('a'));
        assert!(!m.query().unwrap(), "aba ∉ a*b*");
        assert_eq!(m.query().unwrap(), oracle_accepts(&dfa, &shadow));
        set(&mut m, &mut shadow, 6, None);
        assert!(m.query().unwrap(), "deleting the stray a recovers ab");
    }

    #[test]
    fn mismatched_delete_is_a_no_op() {
        let n = 8u32;
        let mut m = DynFoMachine::new(count_mod_program(&['a', 'b'], 'a', 2, 0), n);
        m.apply(&Request::ins("S_a", [2])).unwrap();
        let before = m.state().clone();
        // Position 2 carries 'a'; deleting 'b' there must change nothing.
        m.apply(&Request::del("S_b", [2])).unwrap();
        assert_eq!(*m.state(), before);
    }

    #[test]
    fn in_state_named_query_tracks_the_run() {
        let dfa = count_mod(&['a', 'b'], 'a', 3, 0);
        let n = 9u32;
        let mut m = DynFoMachine::new(dfa_program("count_mod", &dfa), n);
        for pos in [1u32, 4, 6] {
            m.apply(&Request::ins("S_a", [pos])).unwrap();
        }
        // Three a's: the run ends in state 3 mod 3 = 0.
        assert!(m.query_named("in_state", &[0]).unwrap());
        assert!(!m.query_named("in_state", &[1]).unwrap());
    }

    #[test]
    fn universe_smaller_than_the_state_set() {
        // States are relation names, not universe elements: a 3-state
        // DFA runs over a 2-position buffer. The run ends in state 2,
        // which no in_state parameter over {0, 1} can name.
        let dfa = count_mod(&['a', 'b'], 'a', 3, 2);
        let mut m = DynFoMachine::new(dfa_program("count_mod", &dfa), 2);
        let mut shadow = vec![None; 2];
        for (pos, sym) in [(0, Some('a')), (1, Some('a')), (0, Some('b')), (0, Some('a'))] {
            set(&mut m, &mut shadow, pos, sym);
            assert_eq!(m.query().unwrap(), oracle_accepts(&dfa, &shadow), "{shadow:?}");
        }
        assert!(m.query().unwrap(), "two a's: 2 mod 3");
        assert!(!m.query_named("in_state", &[0]).unwrap());
        assert!(!m.query_named("in_state", &[1]).unwrap());
    }

    #[test]
    fn update_depth_is_constant() {
        let p = count_mod_program(&['a', 'b'], 'a', 3, 1);
        // Interval recomposition is one ∃q1q2 block over succ macros:
        // constant depth regardless of n — the parallel claim.
        assert!(p.update_depth() <= 5, "depth {}", p.update_depth());
        assert!(p.has_precomputation(), "identity table is Dyn-FO⁺ init");
    }
}
