import dataclasses
import re

import pytest

import oracles
from groupsystems.errors import NotAGroupSystem, NotAMember, OutOfWindow, ShapeMismatch
from groupsystems.groups import FiniteGroup, Subgroup, cyclic_group, zassenhaus_hom
from groupsystems.io import parse_system
from groupsystems.systems import (
    GeneratorBasis,
    GroupSystem,
    _basis_chain,
    all_tensors,
    alphabet_matrix,
    build_system,
    controllability_index,
    decode_to_tensor,
    encode_spectral_domain,
    encode_time_domain,
    extract_basis,
    fold_spectral_domain,
    fold_time_domain,
    spectral_granule,
    tensor_from_items,
    time_granule,
    window_slots,
)


def test_member_set_basics(r2, c2):
    assert len(r2) == 2
    assert len(c2) == 16
    assert r2.identity in r2
    assert r2.mul((1, 1), (1, 1)) == (0, 0)


def test_rejects_unrealized_letter():
    z2 = cyclic_group(2)
    with pytest.raises(NotAGroupSystem) as exc:
        GroupSystem((0, 1), [z2, z2], [(0, 0)])
    assert exc.value.reason == "alphabet letter unrealized"


def test_rejects_open_product():
    z2 = cyclic_group(2)
    with pytest.raises(NotAGroupSystem) as exc:
        GroupSystem((0, 1), [z2, z2], [(0, 0), (1, 1), (1, 0), ])
    assert exc.value.witness is not None


def test_saturation_closes_seeds():
    z2 = cyclic_group(2)
    sys_ = build_system((0, 1), [z2, z2], [(1, 1), (1, 0)])
    assert len(sys_) == 4


def test_x_y_subgroups(r2, c2):
    assert len(r2.x_subgroup(0)) == 2
    assert r2.x_subgroup(1) == (0,)  # 11 is not identity at time 0
    assert r2.x_subgroup(2) == (0,)
    assert len(r2.y_subgroup(1)) == 2
    # C2 members supported in [0,1]: inputs with x = e_0 impulse or zero
    y1 = c2.y_subgroup(1)
    assert len(y1) == 2
    with pytest.raises(OutOfWindow):
        r2.x_subgroup(3)


@pytest.mark.parametrize("name", ["r2", "c2", "s3_rep", "parity3"])
def test_support_sets_are_subgroups_with_no_closure_check(request, name):
    """X^t and Y^t, read off the extent buckets, pass the table's closure
    check at every t: a support set is a kernel, so a subgroup."""
    system = request.getfixturevalue(name)
    group = oracles.sequence_group(system)
    t0, t1 = system.window
    for t in range(t0, t1 + 2):
        members = system.x_subgroup(t)
        assert Subgroup(group, members).members == members
    for t in range(t0 - 1, t1 + 1):
        members = system.y_subgroup(t)
        assert Subgroup(group, members).members == members


def test_controllability(trivial_sys, r2, c2, s3_rep):
    assert controllability_index(trivial_sys) == 0
    assert controllability_index(r2) == 1
    assert controllability_index(c2) == 1
    assert controllability_index(s3_rep) == 1


def test_time_granule_cases(r2, c2):
    # m < 0 is trivial
    assert time_granule(r2, 0, -1).quotient.order == 1
    # R2 at (i=0, m=1): order 2
    assert time_granule(r2, 0, 1).quotient.order == 2
    # C2 at (i=1, m=2): trivial since m > ell = 1
    assert time_granule(c2, 1, 2, ell=1).quotient.order == 1


def test_time_granule_trivial_beyond_ell(c2):
    ell = controllability_index(c2)
    t0, t1 = c2.window
    for i in range(t0, t1 + 1):
        for m in range(-2, t1 - i + 1):
            qp = time_granule(c2, i, m, ell=ell)
            if m < 0 or m > ell:
                assert qp.quotient.order == 1


def test_spectral_granule(trivial_sys, r2, c2):
    assert spectral_granule(trivial_sys, 0, 1).quotient.order == 1
    assert spectral_granule(r2, 0, 1).quotient.order == 2
    # C2: an impulse at t forces output at t+1, so the (t, t) granule is
    # trivial away from the right edge
    assert spectral_granule(c2, 0, 0).quotient.order == 1
    assert spectral_granule(c2, 3, 0).quotient.order == 2  # clipped tail


def test_granules_on_4096_members_build_no_member_table(monkeypatch):
    """Z2 x0 x0+x1 over [0,11] has 4096 members.  A granule whose numerator
    is all of them is built on its cosets, and no group table of more than
    the quotient's order is made; every slot's granules have the basis's
    label count as their order."""
    system = parse_system("system Z\nwindow 0 11\nrule conv Z2 x0 x0+x1\n")
    basis = extract_basis(system)
    assert len(system) == 4096 and basis.ell == 1
    orders = []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__", lambda self, table, *a, **k:
                        orders.append(len(table)) or init(self, table, *a, **k))
    t0, t1 = system.window
    for whole in (time_granule(system, t0, t1 - t0, ell=1),
                  spectral_granule(system, t0, t1 - t0)):
        assert whole.quotient.order == 1
        assert whole.cosets[0] == tuple(range(4096))
    for k, t in basis.slots:
        assert (time_granule(system, t, k, ell=1).quotient.order
                == spectral_granule(system, t, k).quotient.order
                == basis.label_count((k, t)))
    assert max(orders) == 2


def test_granule_orders_match_zassenhaus(r2, c2):
    for sys_ in (r2, c2):
        ell = controllability_index(sys_)
        g = oracles.sequence_group(sys_)
        t0, t1 = sys_.window
        for (k, t) in window_slots(sys_.window, ell):
            lam = time_granule(sys_, t, k, ell=ell)
            gam = spectral_granule(sys_, t, k)
            assert lam.quotient.order == gam.quotient.order
            hom = zassenhaus_hom(
                g,
                Subgroup(g, sys_.x_subgroup(min(t + 1, t1 + 1))),
                Subgroup(g, sys_.x_subgroup(t)),
                Subgroup(g, sys_.y_subgroup(max(t + k - 1, t0 - 1))),
                Subgroup(g, sys_.y_subgroup(t + k)),
            )
            assert hom.is_injective() and hom.is_surjective()
            assert hom.domain.order == lam.quotient.order


def test_basis_r2(r2):
    basis = extract_basis(r2)
    assert basis.ell == 1
    assert basis.transversals[(1, 0)] == ((0, 0), (1, 1))
    for slot in ((0, 0), (0, 1)):
        assert basis.transversals[slot] == ((0, 0),)


def test_basis_c2(c2):
    basis = extract_basis(c2)
    assert basis.ell == 1
    for t in range(0, 3):
        trans = basis.transversals[(1, t)]
        assert len(trans) == 2
        gen = trans[1]
        # pair (1,1) at t -- index 1 in the restricted diagonal alphabet at
        # t=0, index 3 in the full pair alphabet afterwards
        assert c2.letter(gen, t) == (1 if t == 0 else 3)
        assert c2.letter(gen, t + 1) == 1   # pair (0, 1)
    for t in range(0, 3):
        assert len(basis.transversals[(0, t)]) == 1
    assert len(basis.transversals[(0, 3)]) == 2  # clipped impulse tail


def test_basis_trivial(trivial_sys):
    basis = extract_basis(trivial_sys)
    assert all(trans == ((0, 0),) for trans in basis.transversals.values())


def test_encode_identity(r2, c2):
    for sys_ in (r2, c2):
        basis = extract_basis(sys_)
        r = (0,) * len(basis.slots)
        assert encode_time_domain(basis, r) == sys_.identity
        assert encode_spectral_domain(basis, r) == sys_.identity


def test_encode_r2_generator(r2):
    basis = extract_basis(r2)
    r = tensor_from_items(basis, {(1, 0): 1})
    assert encode_time_domain(basis, r) == (1, 1)


def test_encode_c2_two_generators(c2):
    basis = extract_basis(c2)
    r = tensor_from_items(basis, {(1, 0): 1, (1, 1): 1})
    expected = c2.mul(basis.transversals[(1, 1)][1], basis.transversals[(1, 0)][1])
    assert encode_time_domain(basis, r) == expected


def test_alpha_bijection_exhaustive(r2, c2, s3_rep):
    for sys_ in (r2, c2, s3_rep):
        basis = extract_basis(sys_)
        images = {encode_time_domain(basis, r)
                  for r in all_tensors(map(basis.label_count, basis.slots))}
        assert images == set(sys_.sequences)
        count = 1
        for slot in basis.slots:
            count *= basis.label_count(slot)
        assert count == len(sys_)


def test_encoders_agree_on_abelian(c2):
    basis = extract_basis(c2)
    for r in all_tensors(map(basis.label_count, basis.slots)):
        assert encode_time_domain(basis, r) == encode_spectral_domain(basis, r)


def test_decode_roundtrip(r2, c2, s3_rep):
    for sys_ in (r2, c2, s3_rep):
        basis = extract_basis(sys_)
        for seq in sys_.sequences:
            r = decode_to_tensor(basis, seq)
            assert encode_time_domain(basis, r) == seq
        for r in all_tensors(map(basis.label_count, basis.slots)):
            assert decode_to_tensor(basis, encode_time_domain(basis, r)) == r


def test_decode_rejects_nonmember(r2):
    basis = extract_basis(r2)
    with pytest.raises(NotAMember):
        decode_to_tensor(basis, (1, 0))


def test_decode_r2_single_generator(r2):
    basis = extract_basis(r2)
    r = decode_to_tensor(basis, (1, 1))
    pos = basis.slot_pos
    assert r[pos[(1, 0)]] == 1
    assert r[pos[(0, 0)]] == 0 and r[pos[(0, 1)]] == 0


def test_alphabet_matrix_and_folds(r2, c2):
    for sys_ in (r2, c2):
        basis = extract_basis(sys_)
        for r in all_tensors(map(basis.label_count, basis.slots)):
            seq = encode_time_domain(basis, r)
            spec_seq = encode_spectral_domain(basis, r)
            for t in sys_.times():
                m = alphabet_matrix(basis, r, t)
                assert fold_time_domain(basis, m, t) == sys_.letter(seq, t)
                assert fold_spectral_domain(basis, m, t) == sys_.letter(spec_seq, t)


def test_alphabet_matrix_r2_entry(r2):
    basis = extract_basis(r2)
    r = tensor_from_items(basis, {(1, 0): 1})
    m = alphabet_matrix(basis, r, 1)
    assert m[(1, 1)] == 1  # component 1 of generator 11
    assert m[(0, 0)] == 0


def test_only_active_slots_touch_component(c2):
    # generators supported on [t, t+k] are identity elsewhere
    basis = extract_basis(c2)
    for (k, t), trans in basis.transversals.items():
        for g in trans:
            for s in c2.times():
                if not t <= s <= t + k:
                    assert c2.letter(g, s) == 0


def test_validate_names_the_first_member_at_fault():
    """Member length, letter range and inverses are checked column by
    column; the witness is still the first offending member in member
    order.  These passes run before closure in the unflagged constructor;
    a `_closed` system (built by `build_system`) skips them.  A member of
    the wrong length was once cut to the window by the letter columns and
    reported as missing its inverse."""
    z3 = cyclic_group(3)
    cases = [
        ([(0, 0), (0, 1), (1, 0), (2, 0)], "inverse missing", (0, 1)),
        ([(0, 0), (0, 1), (0, 2), (1, 7)], "letter out of range", ((1, 7), 7)),
        ([(0, 0), (0, 1), (0, 7)], "inverse missing", (0, 1)),
        ([(0, 0), (1, 1, 5)], "member has wrong length", (1, 1, 5)),
        ([(0, 0), (0, 1), (0, 2), (1,)], "member has wrong length", (1,)),
    ]
    for members, reason, witness in cases:
        with pytest.raises(NotAGroupSystem) as info:
            GroupSystem((0, 1), [z3, z3], members)
        assert (info.value.reason, info.value.witness) == (reason, witness)


def test_a_basis_is_certified_where_it_is_built():
    """The transversals fix a basis: its slot table and tensors are derived.
    Transversals that miss a slot of the table at `ell`, or whose entries
    do not span the system with disjoint cosets, are refused where the
    basis is built; each was once accepted and ended in a KeyError later,
    and the replaced entry generates 4 of the 8 members."""
    system = parse_system("system C\nwindow 0 2\nrule conv Z2 x0 x0+x1\n")
    basis = extract_basis(system)
    assert [f.name for f in dataclasses.fields(basis) if f.init] == [
        "system", "ell", "transversals"]
    again = GeneratorBasis(system, basis.ell, dict(basis.transversals))
    assert (again.slots, again.tensors) == (basis.slots, basis.tensors)
    assert basis.slots == window_slots(system.window, basis.ell)
    replaced = {**basis.transversals, (0, 2): ((0, 0, 0), (0, 3, 1))}
    with pytest.raises(NotAGroupSystem) as info:
        GeneratorBasis(system, basis.ell, replaced)
    assert (info.value.reason, info.value.witness) == ("chain step not coset-complete", (1, 1))
    dropped = {slot: e for slot, e in basis.transversals.items() if slot != (0, 2)}
    extra = {**basis.transversals, (2, 0): (system.identity,)}
    for transversals, ell, slot in ((dropped, basis.ell, (0, 2)),
                                    (basis.transversals, basis.ell + 1, (2, 0)),
                                    (extra, basis.ell, (2, 0))):
        with pytest.raises(ShapeMismatch, match=re.escape(f"at slot {slot}") + "$"):
            GeneratorBasis(system, ell, transversals)
    with pytest.raises(OutOfWindow, match="ell 3 exceeds the window"):
        GeneratorBasis(system, 3, basis.transversals)


def test_a_basis_takes_transversals_given_as_lists():
    """Transversals given as lists, or entries given as lists, make the
    extracted basis: each is held as a tuple of int tuples before any
    check.  An entry that is no member is still refused."""
    system = parse_system("system C\nwindow 0 2\nrule conv Z2 x0 x0+x1\n")
    basis = extract_basis(system)
    for convert in (list, lambda entries: tuple(map(list, entries))):
        given = {slot: convert(entries) for slot, entries in basis.transversals.items()}
        again = GeneratorBasis(system, basis.ell, given)
        assert (again.transversals, again.tensors) == (basis.transversals, basis.tensors)
    given = {**basis.transversals, (0, 2): [[0, 0, 0], [0, 1, 1]]}
    with pytest.raises(NotAMember):
        GeneratorBasis(system, basis.ell, given)


# -- input checks that no other test reaches -------------------------------------

def with_entry(basis, slot, entry):
    """The basis with the last entry of `slot`'s transversal replaced."""
    transversals = dict(basis.transversals)
    transversals[slot] = transversals[slot][:-1] + (entry,)
    return dataclasses.replace(basis, transversals=transversals)


def without_last_slot_entries(basis):
    """The transversals with the last slot's cut to its identity entry."""
    transversals = dict(basis.transversals)
    transversals[basis.slots[-1]] = transversals[basis.slots[-1]][:1]
    return transversals


Z2 = cyclic_group(2)
UNREACHED_SYSTEM_CHECKS = {
    "alphabet-count": (lambda c2, r2: GroupSystem((0, 1), [Z2], [(0, 0)]),
                       NotAGroupSystem, "not a group system: alphabet count does not "
                                        "match window (witness None)"),
    "alphabet-time": (lambda c2, r2: c2.alphabet(9), OutOfWindow, "time 9 outside [0,3]"),
    "alphabet-matrix-time": (lambda c2, r2: alphabet_matrix(extract_basis(c2), [0] * 7, 9),
                             OutOfWindow, "time 9 outside window"),
    "y-subgroup": (lambda c2, r2: c2.y_subgroup(9), OutOfWindow,
                   "Y^t defined for -1 <= t <= 3"),
    "no-identity": (lambda c2, r2: GroupSystem((0, 1), [Z2, Z2], [(1, 1)]),
                    NotAGroupSystem, "not a group system: identity sequence missing "
                                     "(witness (0, 0))"),
    "time-granule": (lambda c2, r2: time_granule(c2, 0, 9), OutOfWindow,
                     "granule interval [0,9] escapes [0,3]"),
    "spectral-granule": (lambda c2, r2: spectral_granule(c2, 9, 0), OutOfWindow,
                         "granule interval [9,9] escapes [0,3]"),
    "tensor-slot": (lambda c2, r2: tensor_from_items(extract_basis(c2), {(5, 0): 1}),
                    OutOfWindow, "slot (5, 0) not in window"),
    "entry-not-member": (lambda c2, r2: with_entry(extract_basis(r2), (1, 0), (1, 0)),
                         NotAMember, "(1, 0) is not a member of R2"),
    "granule-case": (lambda c2, r2: time_granule(c2, 0, 1, ell=0), NotAGroupSystem,
                     "not a group system: granule case analysis violated (witness (0, 1))"),
    "chain-short": (lambda c2, r2: _basis_chain(
        c2, extract_basis(c2).slots, without_last_slot_entries(extract_basis(c2))),
        NotAGroupSystem, "not a group system: slot transversals do not span the "
                         "system (witness None)"),
}


@pytest.mark.parametrize("name", UNREACHED_SYSTEM_CHECKS)
def test_input_checks_raise_their_error_and_message(c2, r2, name):
    call, error, message = UNREACHED_SYSTEM_CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(c2, r2)
