import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wroca import (
    AlphabetMismatch,
    Configuration,
    Dwa,
    Dwroca,
    FieldMismatch,
    InternalError,
    ParseError,
    WaConfig,
    bounded_k_equiv,
    dwa_equiv,
    find_k_equiv_wa_config,
    prime_field,
    rational,
    underlying_wa,
)
from wroca.dwa import _difference_search, _EchelonBasis, _pair_scaler
from wroca.testkit import GeneratorConfig, default_weight_pool, generate, random_words

Q = rational()


def one_state_dwa(loop_weight, final_weight=None, initial_weight=None):
    return Dwa(
        ["q0"],
        ["a"],
        {("q0", "a"): ("q0", Q.element(loop_weight))},
        {"q0": Q.one() if final_weight is None else Q.element(final_weight)},
        ("q0", Q.one() if initial_weight is None else Q.element(initial_weight)),
    )


def brute_dwa_witness(b1, b2, max_len):
    """Plain word-tree walk over configuration pairs; first weight mismatch."""
    zero = b1.field.zero()
    symbols = b1.alphabet.symbols

    def accepts(machine, cfg):
        if cfg is None:
            return zero
        return cfg[1] * machine.final_weights[cfg[0]]

    level = [((), b1.initial, b2.initial)]
    for depth in range(max_len + 1):
        for word, c1, c2 in level:
            if accepts(b1, c1) != accepts(b2, c2):
                return word
        if depth == max_len:
            break
        nxt = []
        for word, c1, c2 in level:
            for i, symbol in enumerate(symbols):
                d1 = b1.step_config(c1[0], i) if c1 else None
                d2 = b2.step_config(c2[0], i) if c2 else None
                if d1:
                    d1 = (d1[0], c1[1] * d1[1])
                if d2:
                    d2 = (d2[0], c2[1] * d2[1])
                if d1 is None and d2 is None:
                    continue
                nxt.append((word + (symbol,), d1, d2))
        level = nxt
    return None


def rebuilt(b, finals, initial_weight):
    """A copy of ``b`` with new final weights (indexed by state) and initial weight."""
    transitions = {
        (b.states[src], b.alphabet.symbols[sym]): (b.states[dst], w)
        for (src, sym), (dst, w) in b.transitions.items()
    }
    return Dwa(
        b.states,
        b.alphabet,
        transitions,
        dict(zip(b.states, finals)),
        (b.states[b.initial[0]], initial_weight),
    )


def scaled_copy(b):
    """An equivalent copy of ``b``: initial weight times 3, final weights over 3."""
    scale = b.field.element(3)
    finals = [w * scale.inverse() for w in b.final_weights]
    return rebuilt(b, finals, b.initial[1] * scale)


def difference_rank(b1, b2, max_len):
    """Rank of the difference vectors (x_w, -y_w) of all words w of length at
    most ``max_len``, where x_w and y_w are the forward vectors of the two
    machines, found by dense Gaussian elimination.

    Words are walked level by level with ``step_config``. A level keeps each
    vector only up to a nonzero scalar (scaled so its first nonzero
    coordinate is 1), which leaves the rank unchanged and keeps the levels
    small.
    """
    n1 = b1.size
    field = b1.field

    def ray(c1, c2):
        lead = (c1 if c1 is not None else c2)[1].inverse()
        return (
            None if c1 is None else (c1[0], c1[1] * lead),
            None if c2 is None else (c2[0], c2[1] * lead),
        )

    def step(machine, config, sym):
        if config is None:
            return None
        nxt = machine.step_config(config[0], sym)
        return None if nxt is None else (nxt[0], config[1] * nxt[1])

    level = {ray(b1.initial, b2.initial)}
    seen = set(level)
    for _ in range(max_len):
        nxt = set()
        for c1, c2 in level:
            for sym in range(len(b1.alphabet)):
                d1, d2 = step(b1, c1, sym), step(b2, c2, sym)
                if d1 is not None or d2 is not None:
                    nxt.add(ray(d1, d2))
        level = nxt - seen
        seen |= level

    matrix = []
    for c1, c2 in seen:
        vec = [field.zero()] * (n1 + b2.size)
        if c1 is not None:
            vec[c1[0]] = c1[1]
        if c2 is not None:
            vec[n1 + c2[0]] = -c2[1]
        matrix.append(vec)
    return dense_rank(matrix)


def dense_rank(matrix):
    """Rank of a list of equal-length lists of FieldElement, by dense
    Gaussian elimination on a copy."""
    matrix = list(matrix)
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((i for i in range(rank, len(matrix)) if not matrix[i][col].is_zero), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col].inverse()
        for i in range(rank + 1, len(matrix)):
            factor = matrix[i][col] * inv
            if not factor.is_zero:
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def random_dwa(seed, field=None):
    rng = random.Random(seed)
    field = field or (rational() if seed % 2 else prime_field(7))
    source = generate(
        GeneratorConfig(
            seed=rng.randrange(2**32),
            field=field,
            num_states=(1, 5),
            alphabet_size=(2, 3),
            density=0.75,
        )
    )
    pool = default_weight_pool(field)
    return underlying_wa(source).with_initial(0, rng.choice(pool))


class TestUnderlyingWa:
    def test_e1_becomes_self_loop(self, e1):
        wa = underlying_wa(e1)
        assert wa.initial is None
        assert wa.transitions == {(0, 0): (0, Q.element(2))}
        assert wa.final_weights == (Q.one(),)

    def test_empty_plus_table(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {("q0", "a"): ("q0", 1, Q.one())}, {}, {"q0": Q.one()}
        )
        assert underlying_wa(machine).transitions == {}

    def test_size_preserved(self):
        for seed in range(10):
            machine = generate(GeneratorConfig(seed=seed, num_states=(1, 5)))
            assert underlying_wa(machine).size == machine.size


class TestDwaAcceptWeight:
    def test_two_loops(self, e1):
        wa = underlying_wa(e1)
        assert wa.accept_weight(WaConfig(0, Q.one()), ("a", "a")) == Q.element(4)

    def test_empty_word(self, e1):
        wa = underlying_wa(e1)
        assert wa.accept_weight(WaConfig(0, Q.element(3)), ()) == Q.element(3)

    def test_missing_transition_gives_zero(self, Q):
        wa = Dwa(["q0"], ["a"], {}, {"q0": Q.one()})
        assert wa.accept_weight(WaConfig(0, Q.one()), ("a",)) == Q.zero()

    def test_zero_start_weight_rejected(self):
        with pytest.raises(ValueError):
            WaConfig(0, Q.zero())


class TestDwaEquiv:
    def test_self_equivalence(self):
        b = one_state_dwa(2)
        verdict = dwa_equiv(b, b)
        assert verdict.equivalent and verdict.witness is None

    def test_loop_weight_mismatch(self):
        verdict = dwa_equiv(one_state_dwa(2), one_state_dwa(3))
        assert not verdict.equivalent
        assert verdict.witness.word == ("a",)
        assert verdict.witness.f1 == Q.element(2)
        assert verdict.witness.f2 == Q.element(3)

    def test_empty_word_witness(self):
        verdict = dwa_equiv(one_state_dwa(2, final_weight=1), one_state_dwa(2, final_weight=5))
        assert not verdict.equivalent
        assert verdict.witness.word == ()
        assert verdict.witness.f1 == Q.one() and verdict.witness.f2 == Q.element(5)

    def test_uninitialised_rejected(self, e1):
        with pytest.raises(ValueError):
            dwa_equiv(underlying_wa(e1), one_state_dwa(2))

    def test_alphabet_mismatch(self):
        other = Dwa(["q0"], ["b"], {}, {"q0": Q.one()}, ("q0", Q.one()))
        with pytest.raises(AlphabetMismatch):
            dwa_equiv(one_state_dwa(2), other)

    def test_alphabet_order_matters(self):
        b1 = Dwa(["q0"], ["a", "b"], {}, {"q0": Q.one()}, ("q0", Q.one()))
        b2 = Dwa(["q0"], ["b", "a"], {}, {"q0": Q.one()}, ("q0", Q.one()))
        with pytest.raises(AlphabetMismatch):
            dwa_equiv(b1, b2)

    def test_field_mismatch(self):
        gf = prime_field(7)
        other = Dwa(["q0"], ["a"], {}, {"q0": gf.one()}, ("q0", gf.one()))
        with pytest.raises(FieldMismatch):
            dwa_equiv(one_state_dwa(2), other)

    def test_witness_matches_brute_force(self):
        for seed in range(120):
            b1 = random_dwa(3000 + seed)
            b2 = random_dwa(9000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            verdict = dwa_equiv(b1, b2)
            expected = brute_dwa_witness(b1, b2, b1.size + b2.size)
            if expected is None:
                assert verdict.equivalent
            else:
                assert not verdict.equivalent
                assert verdict.witness.word == expected
                assert verdict.witness.f1 == b1.initial_accept_weight(expected)
                assert verdict.witness.f2 == b2.initial_accept_weight(expected)

    def test_basis_never_exceeds_dimension(self):
        for seed in range(80):
            b1 = random_dwa(13000 + seed)
            b2 = random_dwa(15000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            verdict = dwa_equiv(b1, b2)
            assert verdict.stats.basis_size <= b1.size + b2.size

    def test_equivalent_verdicts_agree_on_random_words(self):
        hits = 0
        for seed in range(60):
            b1 = random_dwa(21000 + seed)
            b2 = scaled_copy(b1)
            verdict = dwa_equiv(b1, b2)
            assert verdict.equivalent
            hits += 1
            for w in random_words(b1.alphabet, 25, 20, seed):
                assert b1.initial_accept_weight(w) == b2.initial_accept_weight(w)
        assert hits == 60

    def test_pruning_changes_nothing(self):
        for seed in range(50):
            b1 = random_dwa(31000 + seed)
            b2 = random_dwa(33000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            depth = 6
            pruned, _ = _difference_search(b1, b2, max_len=depth)
            plain, _ = _difference_search(b1, b2, max_len=depth, prune=False)
            assert (pruned is None) == (plain is None)
            if pruned is not None:
                assert pruned.word == plain.word
                assert (pruned.f1, pruned.f2) == (plain.f1, plain.f2)

    def test_basis_size_is_rank_of_difference_vectors(self):
        # Scaled copies mirror the left machine's states on the right, so
        # their vectors never need fill-in (reducing by a row adding
        # coordinates). Independent pairs whose final weights are all zero
        # are equivalent too, and their reductions do fill in.
        checked = 0
        for seed in range(40):
            b1 = random_dwa(51000 + seed)
            pairs = [(b1, scaled_copy(b1))]
            b2 = random_dwa(53000 + seed, field=b1.field)
            if b1.alphabet == b2.alphabet:
                zero = b1.field.zero()
                pairs.append(
                    (
                        rebuilt(b1, [zero] * b1.size, b1.initial[1]),
                        rebuilt(b2, [zero] * b2.size, b2.initial[1]),
                    )
                )
            for left, right in pairs:
                verdict = dwa_equiv(left, right)
                assert verdict.equivalent
                expected = difference_rank(left, right, left.size + right.size)
                assert verdict.stats.basis_size == expected
                checked += 1
        assert checked > 50

    def test_dimension_overflow_raises_internal_error(self):
        left = one_state_dwa(2)
        # a^n weighs 2^n here too, but a and the empty word end in different
        # states, so the search keeps two vectors
        right = Dwa(
            ["p0", "p1"],
            ["a"],
            {("p0", "a"): ("p1", Q.element(2)), ("p1", "a"): ("p1", Q.element(2))},
            {"p0": Q.one(), "p1": Q.one()},
            ("p0", Q.one()),
        )
        assert _difference_search(left, right, dimension=3)[1].basis_size == 2
        with pytest.raises(InternalError):
            _difference_search(left, right, dimension=1)


GF7 = prime_field(7)
GF_BIG = prime_field(2**31 - 1)

_elements = st.one_of(
    st.builds(lambda n, d: Q.element(Fraction(n, d)), st.integers(), st.integers(min_value=1)),
    st.builds(GF7.element, st.integers()),
    st.builds(GF_BIG.element, st.integers()),
)


class TestPairScaler:
    @given(_elements, st.data())
    def test_scale_pair_keeps_the_ray(self, u, data):
        spec = u.spec
        v = data.draw(st.integers(-(2**40), 2**40).map(spec.element))
        a, b = data.draw(st.integers(-50, 50)), data.draw(st.integers(-50, 50))
        x, y = _pair_scaler(spec)(a, b, u, v)
        left, right = spec.element(a) * u, spec.element(b) * v
        # (x, y) is (left, right) times a scalar that is nonzero unless both are zero
        assert spec.element(x) * right == spec.element(y) * left
        assert (x == y) == (left == right)
        assert ((x, y) == (0, 0)) == (left.is_zero and right.is_zero)


class TestEchelonBasis:
    COORDS = [(side, state) for side in (0, 1) for state in range(3)]

    def sparse_vectors(self, rng, field):
        """Vectors with 3-6 nonzero int coordinates, as the search stores
        them: residues in [1, p) over GF(p), any nonzero int over Q. Three
        random ones and combinations of pairs of them, so the set has rank
        at most 3 in a space of dimension 6 and most vectors are spanned by
        earlier ones."""
        p = field.modulus

        def reduced(values):
            return {c: v % p if p else v for c, v in values.items() if (v % p if p else v)}

        base = []
        while len(base) < 3:
            coords = rng.sample(self.COORDS, rng.randint(3, 6))
            base.append(reduced({c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in coords}))
        vectors = list(base)
        while len(vectors) < 10:
            u, w = rng.sample(base, 2)
            cu, cw = rng.choice([-2, -1, 1, 2, 3]), rng.choice([-3, -1, 1, 2])
            combo = reduced({c: cu * u.get(c, 0) + cw * w.get(c, 0) for c in self.COORDS})
            if len(combo) >= 3:
                vectors.append(combo)
        rng.shuffle(vectors)
        return vectors

    @pytest.mark.parametrize("field", [rational(), prime_field(7)], ids=["q", "gf7"])
    def test_kept_rows_are_rank(self, field):
        # Reductions here fill in (a row adds coordinates the vector lacks)
        # and, over Q, meet rows whose pivot value is not 1, which the
        # vectors of deterministic pairs rarely do.
        rng = random.Random(71)
        for _ in range(150):
            vectors = self.sparse_vectors(rng, field)
            basis = _EchelonBasis(field.modulus)
            dense = []
            for vec in vectors:
                before = dense_rank(dense)
                dense.append([field.element(vec.get(c, 0)) for c in self.COORDS])
                assert basis.insert(dict(vec)) == (dense_rank(dense) > before)
            assert len(basis.rows) == dense_rank(dense)
            # one row form: (d, coords), residues in [1, p) over GF(p) and
            # content-free ints over Q
            p = field.modulus
            for pivot, coords in basis.rows.items():
                values = [basis.scales.get(pivot, 1), *coords.values()]
                if p:
                    assert all(0 < v < p for v in values)
                else:
                    assert gcd(*values) == 1


class TestBoundedKEquiv:
    def test_depth_zero_compares_empty_word_only(self):
        b1, b2 = one_state_dwa(2), one_state_dwa(3)
        assert bounded_k_equiv(b1, b2, 0)
        assert not bounded_k_equiv(b1, b2, 1)

    def test_identical_any_depth(self):
        b = one_state_dwa(2)
        for k in (0, 1, 5, 40):
            assert bounded_k_equiv(b, b, k)

    def test_matches_brute_force_on_prefix_depths(self):
        for seed in range(60):
            b1 = random_dwa(41000 + seed)
            b2 = random_dwa(43000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            for k in (0, 1, 3):
                assert bounded_k_equiv(b1, b2, k) == (brute_dwa_witness(b1, b2, k) is None)


class TestFindKEquivConfig:
    def test_e1_counter_zero(self, e1):
        wa = underlying_wa(e1)
        found = find_k_equiv_wa_config(e1, Configuration(0, 0, Q.one()), wa, 2)
        assert found == WaConfig(0, Q.one())

    def test_all_zero_finals_not_found(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {("q0", "a"): ("q0", 1, Q.one())}, {}, {"q0": Q.one()}
        )
        wa = Dwa(["q0"], ["a"], {}, {"q0": Q.zero()})
        assert find_k_equiv_wa_config(machine, machine.initial_configuration(), wa, 0) is None

    def test_found_config_really_is_k_equivalent(self):
        for seed in range(50):
            rng = random.Random(seed)
            field = rational() if seed % 2 else prime_field(7)
            pool = default_weight_pool(field)
            machine = generate(GeneratorConfig(seed=5000 + seed, field=field, num_states=(2, 3)))
            wa = underlying_wa(generate(GeneratorConfig(seed=6000 + seed, field=field, num_states=(2, 3))))
            k = rng.randint(0, 3)
            config = Configuration(rng.randrange(machine.size), rng.randint(0, 3), rng.choice(pool))
            found = find_k_equiv_wa_config(machine, config, wa, k)
            if found is None:
                continue
            words = [()]
            for length in range(1, k + 1):
                words += [
                    w + (s,) for w in words if len(w) == length - 1 for s in machine.alphabet
                ]
            for w in words:
                assert machine.accept_weight_or_zero(w, config) == wa.accept_weight(found, w)

    def test_scaling_property(self, e1):
        wa = underlying_wa(e1)
        s = Q.element(2)
        s_bar = Q.element("1/3")
        base = find_k_equiv_wa_config(e1, Configuration(0, 1, s), wa, 2)
        assert base is not None
        scaled_weight = s_bar * s.inverse() * base.weight
        rescaled = WaConfig(base.state, scaled_weight)
        for w in [(), ("a",), ("a", "a")]:
            expected = e1.accept_weight_or_zero(w, Configuration(0, 1, s_bar))
            assert wa.accept_weight(rescaled, w) == expected


class TestDwaJson:
    def test_roundtrip_initialised(self):
        b = one_state_dwa(2, final_weight=5, initial_weight=3)
        doc = b.to_json()
        assert set(doc) == {"field", "states", "alphabet", "initial", "delta", "final"}
        assert Dwa.from_json(doc).to_json() == doc

    def test_roundtrip_uninitialised(self, e1):
        wa = underlying_wa(e1)
        doc = wa.to_json()
        assert "initial" not in doc
        assert Dwa.from_json(doc).to_json() == doc

    def test_unknown_key_rejected(self):
        doc = one_state_dwa(2).to_json()
        doc["ce"] = 1
        with pytest.raises(ParseError):
            Dwa.from_json(doc)

    @pytest.mark.parametrize("states", [[], ["q0", "q0"]], ids=["empty", "duplicate"])
    def test_bad_state_list_rejected(self, states):
        doc = one_state_dwa(2).to_json()
        doc["states"] = states
        doc["final"] = {name: "1" for name in states}
        with pytest.raises(ParseError):
            Dwa.from_json(doc)

    def test_delta_entry_has_no_ce(self):
        doc = one_state_dwa(2).to_json()
        assert set(doc["delta"][0]) == {"from", "on", "to", "weight"}
        doc["delta"][0]["ce"] = 1
        with pytest.raises(ParseError):
            Dwa.from_json(doc)

    @pytest.mark.parametrize("key", ["from", "on", "to"])
    @pytest.mark.parametrize("value", [["q0"], {"q0": "a"}], ids=["list", "object"])
    def test_non_string_entry_names_rejected(self, key, value):
        doc = one_state_dwa(2).to_json()
        doc["delta"][0][key] = value
        with pytest.raises(ParseError):
            Dwa.from_json(doc)
