import pytest

from groupsystems.errors import BoundExceeded, NotAGroupSystem, NotAMember, OutOfWindow
from groupsystems.groups import cyclic_group, zassenhaus_hom
from groupsystems.systems import (
    SEQUENCE_GROUP_TABLE_CAP,
    GroupSystem,
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
    assert r2.x_subgroup(0).order == 2
    assert r2.x_subgroup(1).order == 1  # 11 is not identity at time 0
    assert r2.x_subgroup(2).order == 1
    assert r2.y_subgroup(1).order == 2
    # C2 members supported in [0,1]: inputs with x = e_0 impulse or zero
    y1 = c2.y_subgroup(1)
    assert y1.order == 2
    with pytest.raises(OutOfWindow):
        r2.x_subgroup(3)


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


def test_granule_orders_match_zassenhaus(r2, c2):
    for sys_ in (r2, c2):
        ell = controllability_index(sys_)
        g = sys_.sequence_group
        t0, t1 = sys_.window
        for (k, t) in window_slots(sys_.window, ell):
            lam = time_granule(sys_, t, k, ell=ell)
            gam = spectral_granule(sys_, t, k)
            assert lam.quotient.order == gam.quotient.order
            hom = zassenhaus_hom(
                g,
                sys_.x_subgroup(min(t + 1, t1 + 1)),
                sys_.x_subgroup(t),
                sys_.y_subgroup(max(t + k - 1, t0 - 1)),
                sys_.y_subgroup(t + k),
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


def test_sequence_table_cap_names_itself():
    z2 = cyclic_group(2)
    big = build_system((0, 11), [z2] * 12,
                       [tuple(int(i == t) for i in range(12)) for t in range(12)])
    assert len(big) == 4096 > SEQUENCE_GROUP_TABLE_CAP
    big.verify_closure()  # the closure check needs no table
    with pytest.raises(BoundExceeded) as info:
        big.sequence_group
    message = str(info.value)
    assert "SEQUENCE_GROUP_TABLE_CAP=2048" in message and "4096" in message
    assert "normal chains" in message


def test_validate_names_the_first_member_at_fault():
    """Letter range and inverses are checked column by column; the witness
    is still the first offending member in member order.  These passes run
    before closure in the unflagged constructor; a `_closed` system (built
    by `build_system`) skips them."""
    z3 = cyclic_group(3)
    cases = [
        ([(0, 0), (0, 1), (1, 0), (2, 0)], "inverse missing", (0, 1)),
        ([(0, 0), (0, 1), (0, 2), (1, 7)], "letter out of range", ((1, 7), 7)),
        ([(0, 0), (0, 1), (0, 7)], "inverse missing", (0, 1)),
    ]
    for members, reason, witness in cases:
        with pytest.raises(NotAGroupSystem) as info:
            GroupSystem((0, 1), [z3, z3], members)
        assert (info.value.reason, info.value.witness) == (reason, witness)
