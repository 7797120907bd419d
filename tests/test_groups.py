import math

import numpy as np
import pytest

from freewalk.groups import (
    EMPTY_WORD,
    GROUP_TABLE_CELLS,
    FreeProduct,
    GroupTableError,
    Letter,
    NonGeneratingSetError,
    StateBudgetError,
    Word,
    _check_order,
    factor_distances,
    free_product_of_cyclics,
    letter_lengths,
    make_cyclic,
    make_finite_group,
    natural_lengths,
    normal_words,
    sphere_series,
)
from freewalk.simulate import _steps
from freewalk.walkspec import minimal_generators

from oracles import (
    S3_TABLE,
    append_letter,
    ball_count,
    ball_count_bfs,
    factor_distances_oracle,
    make_finite_group_reference,
    word_weight,
)

KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def test_make_cyclic_small_tables():
    z2 = make_cyclic(2)
    assert z2.mul[1][1] == 0
    z3 = make_cyclic(3)
    assert z3.inv[1] == 2 and z3.inv[2] == 1
    z4 = make_cyclic(4)
    assert z4.mul[1][3] == 0 and z4.mul[2][2] == 0


def test_make_cyclic_rejects_tiny_order():
    with pytest.raises(GroupTableError):
        make_cyclic(1)


def test_make_finite_group_accepts_klein():
    klein = make_finite_group(KLEIN_TABLE)
    assert klein.order == 4
    assert all(klein.inv[g] == g for g in range(4))


def test_make_finite_group_rejects_idempotent_nonidentity():
    # mul(1,1)=1 with 1 != identity leaves 1 without an inverse
    table = [[0, 1], [1, 1]]
    with pytest.raises(GroupTableError):
        make_finite_group(table)


def test_make_finite_group_reports_associativity_witness():
    table = [list(row) for row in make_cyclic(3).mul]
    table[1][1] = 0  # corrupt one entry; identity row/column stay intact
    with pytest.raises(GroupTableError, match="associativity"):
        make_finite_group(table)


def test_make_finite_group_requires_identity_at_zero():
    with pytest.raises(GroupTableError):
        make_finite_group([[1, 0], [0, 1]])


def test_group_tables_are_read_only_arrays_of_the_least_dtype():
    for k, dtype in ((2, np.uint8), (256, np.uint8), (257, np.uint16)):
        group = make_cyclic(k)
        assert group.mul.dtype == dtype and group.mul.shape == (k, k)
        assert not group.mul.flags.writeable
        assert group.mul[k - 1, 1] == 0 and group.inv[1] == k - 1
    s3 = make_finite_group(S3_TABLE)
    assert s3.mul.dtype == np.uint8 and not s3.mul.flags.writeable
    assert s3.mul.tolist() == S3_TABLE


def test_group_table_budget_edge():
    # the largest order used by the tests, CI, verify and the benchmark is 130
    edge = math.isqrt(GROUP_TABLE_CELLS)
    assert edge == 4096 and edge * edge == GROUP_TABLE_CELLS
    _check_order(edge)
    with pytest.raises(GroupTableError, match="cells"):
        _check_order(edge + 1)
    with pytest.raises(GroupTableError, match="cells"):
        make_cyclic(edge + 1)
    with pytest.raises(GroupTableError, match="cells"):
        make_cyclic(100_000)
    # rejected before any row is read: each row here is empty
    with pytest.raises(GroupTableError, match="cells"):
        make_finite_group([[]] * (edge + 1))


# A Latin square with identity 0 in which every element is its own
# inverse, but (1*1)*2 = 2 while 1*(1*2) = 4.
LOOP_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def broken(table, *edits):
    rows = [list(row) for row in table]
    for a, b, value in edits:
        rows[a][b] = value
    return rows


@pytest.mark.parametrize(
    "table",
    [
        broken(S3_TABLE, (2, 3, 6)),
        broken(S3_TABLE, (4, 1, -1)),
        broken(S3_TABLE, (3, 5, "5")),
        broken(S3_TABLE, (3, 5, 2.0)),
        broken(S3_TABLE, (1, 1, None), (0, 4, 9)),
        broken(S3_TABLE, (3, 5, 2**70)),
        [[0, 1, 2], [1, 2], [2, 0, 1]],
        [[0, 1, 2], [1, 2, 0], [2, 0]],
        [[0, 1, 2], [1, 2, 7], [2]],
        [[0, 1], [0, 1]],
        [[1, 0], [0, 1]],
        broken(KLEIN_TABLE, (2, 0, 3)),
        [[0, 1], [1, 1]],
        broken(KLEIN_TABLE, (3, 3, 1)),
        LOOP_TABLE,
        broken(S3_TABLE, (4, 4, 3), (5, 5, 2)),
        [[0]],
        [],
    ],
    ids=["entry-too-large", "entry-negative", "entry-string", "entry-float", "entry-before-a-none",
         "entry-huge-int", "short-row", "short-last-row", "bad-entry-before-short-row",
         "no-identity-row", "no-identity-at-0", "no-identity-column", "no-inverse",
         "no-inverse-klein", "loop", "s3-two-entries", "order-1", "empty"],
)
def test_make_finite_group_reports_the_reference_error(table):
    with pytest.raises(GroupTableError) as want:
        make_finite_group_reference(table)
    with pytest.raises(GroupTableError) as got:
        make_finite_group(table)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_make_finite_group_matches_the_reference_on_corrupted_tables():
    # corrupt entries off the identity's row and column of groups of order 8 and 12
    rng = np.random.default_rng(3)
    # S3 x Z/2, element 2 s + z for s in S3 and z in Z/2
    s3z2 = [[2 * S3_TABLE[a // 2][b // 2] + (a + b) % 2 for b in range(12)] for a in range(12)]
    tables = [s3z2, [[(a + b) % 8 for b in range(8)] for a in range(8)]]
    messages = set()
    for table in tables:
        make_finite_group(table)  # the uncorrupted table is a group
        for _ in range(40):
            m = len(table)
            edits = [(int(rng.integers(1, m)), int(rng.integers(1, m)), int(rng.integers(m)))
                     for _ in range(int(rng.integers(1, 3)))]
            rows = broken(table, *edits)
            try:
                order, mul, inv = make_finite_group_reference(rows)
            except GroupTableError as exc:
                with pytest.raises(GroupTableError) as got:
                    make_finite_group(rows)
                assert str(got.value) == str(exc)
                messages.add(str(exc).split(" ")[0])
                continue
            group = make_finite_group(rows)
            assert group.mul.tolist() == [list(row) for row in mul] and group.inv == inv
    assert messages == {"associativity", "element"}


@pytest.mark.parametrize(
    "table",
    [KLEIN_TABLE, S3_TABLE, [[False, True], [True, False]], [[0, True], [True, 0]],
     [[np.int64(0), np.uint8(1)], [1, 0]], np.array(S3_TABLE, dtype=np.int16),
     [list(row) for row in make_cyclic(5).mul]],
    ids=["klein", "s3", "booleans", "mixed-booleans", "numpy-integers", "array", "cyclic-rows"],
)
def test_make_finite_group_matches_the_reference_on_groups(table):
    order, mul, inv = make_finite_group_reference(table)
    group = make_finite_group(table)
    assert group.order == order and group.mul.tolist() == [list(row) for row in mul]
    assert group.inv == inv and all(type(x) is int for x in group.inv)


def test_equal_tables_give_equal_groups():
    z5 = make_cyclic(5)
    same = make_finite_group([list(row) for row in z5.mul])
    assert same is not z5 and same == z5 and hash(same) == hash(z5)
    assert make_cyclic(5) == z5 and hash(make_cyclic(5)) == hash(z5)
    assert make_cyclic(6) != z5 and make_cyclic(4) != make_finite_group(KLEIN_TABLE)
    assert z5 != "Z/5" and len({z5, same, make_cyclic(5), make_cyclic(6)}) == 2


def test_word_normal_form_enforced():
    with pytest.raises(ValueError):
        Word((Letter(0, 1), Letter(0, 2)))
    with pytest.raises(ValueError):
        Word((Letter(0, 0),))
    w = Word((Letter(0, 1), Letter(1, 2)))
    assert len(w) == 2 and str(w) == "0:1.1:2"
    assert str(EMPTY_WORD) == "1"


def test_word_domain_validation_and_parsing():
    product = free_product_of_cyclics(2, 3)
    with pytest.raises(ValueError):
        product.word([Letter(0, 2)])  # no such element in Z/2
    with pytest.raises(ValueError):
        product.word([Letter(5, 1)])
    parsed = product.parse_word("0:1.1:2")
    assert parsed == product.word([Letter(0, 1), Letter(1, 2)])
    assert product.parse_word("1") == EMPTY_WORD
    with pytest.raises(ValueError):
        Letter.parse("banana")


def concat_normalize(product, w1: Word, w2: Word) -> Word:
    """w1 right-multiplied by each letter of w2, through the step tables of the package."""
    act = _steps(product)
    stack = np.zeros(len(w1) + len(w2) + 1, dtype=np.intp)  # cells: letter index + 1
    stack[1 : len(w1) + 1] = [product.letter_index(u) + 1 for u in w1]
    at = len(w1)
    for u in w2:
        code = product.letter_index(u) * (product.nletters + 1) + stack[at]
        stack[max(at, at + act.rise[code])] = act.value[code]
        at += act.rise[code]
    return Word(tuple(product.alphabet[c - 1] for c in stack[1 : at + 1]))


def test_concat_same_factor_merge():
    product = free_product_of_cyclics(3, 3)
    a = product.word([Letter(0, 1)])
    assert concat_normalize(product, a, a) == product.word([Letter(0, 2)])


def test_concat_cascade_cancellation():
    # "ab" * "b^2 a" collapses to "a^2" in Z/3 * Z/3
    product = free_product_of_cyclics(3, 3)
    ab = product.word([Letter(0, 1), Letter(1, 1)])
    b2a = product.word([Letter(1, 2), Letter(0, 1)])
    assert concat_normalize(product, ab, b2a) == product.word([Letter(0, 2)])


def test_concat_with_unit():
    product = free_product_of_cyclics(2, 3)
    ab = product.word([Letter(0, 1), Letter(1, 1)])
    assert concat_normalize(product, ab, EMPTY_WORD) == ab
    assert concat_normalize(product, EMPTY_WORD, ab) == ab


def test_concat_associative_and_subadditive_exhaustive():
    product = free_product_of_cyclics(2, 3)
    words = [EMPTY_WORD] + normal_words(product, 3)
    for w1 in words:
        for w2 in words:
            w12 = concat_normalize(product, w1, w2)
            assert len(w12) <= len(w1) + len(w2)
    # associativity on a length-2 subset to keep the cube tractable
    small = [EMPTY_WORD] + normal_words(product, 2)
    for w1 in small:
        for w2 in small:
            w12 = concat_normalize(product, w1, w2)
            for w3 in small:
                left = concat_normalize(product, w12, w3)
                right = concat_normalize(product, w1, concat_normalize(product, w2, w3))
                assert left == right


def test_right_multiply_inverse_roundtrip():
    product = free_product_of_cyclics(3, 4)
    words = [EMPTY_WORD] + normal_words(product, 2)
    for a in product.alphabet:
        a_inv = product.letter_inverse(a)
        one = concat_normalize(product, product.word([a]), product.word([a_inv]))
        assert one == EMPTY_WORD
        for w in words:
            # (a * a^-1) * w = w and (w * a^-1) * a = w always
            assert concat_normalize(product, one, w) == w
            inner = concat_normalize(product, w, product.word([a_inv]))
            assert concat_normalize(product, inner, product.word([a])) == w


@pytest.mark.parametrize(
    "product",
    [free_product_of_cyclics(2, 3, 4),
     FreeProduct([make_finite_group(S3_TABLE), make_cyclic(2), make_cyclic(4)])],
    ids=["z2z3z4", "s3z2z4"],
)
def test_right_multiply_matches_append_letter_oracle(product):
    for w in [EMPTY_WORD] + normal_words(product, 3):
        for u in product.alphabet:
            expected = append_letter(product, w.letters, u)
            assert concat_normalize(product, w, Word((u,))).letters == expected


def weight(table, u):
    return table.weights[table.product.letter_index(u)]


def test_letter_lengths_natural_and_minimal():
    product = free_product_of_cyclics(4, 4)
    assert np.all(natural_lengths(product).weights == 1)
    minimal = [Letter(0, 1), Letter(0, 3), Letter(1, 1), Letter(1, 3)]
    table = letter_lengths(product, minimal)
    assert weight(table, Letter(0, 2)) == 2
    assert weight(table, Letter(0, 1)) == 1
    assert weight(table, Letter(0, 3)) == 1
    full = letter_lengths(product, product.alphabet)
    assert np.all(full.weights == 1)


def test_letter_lengths_z2z4_minimal():
    product = free_product_of_cyclics(2, 4)
    table = letter_lengths(product, [Letter(0, 1), Letter(1, 1), Letter(1, 3)])
    assert weight(table, Letter(1, 2)) == 2
    assert word_weight(table, product.word([Letter(1, 2), Letter(0, 1)])) == 3


def test_letter_lengths_requires_symmetric_generating_set():
    product = free_product_of_cyclics(4, 4)
    with pytest.raises(ValueError, match="symmetric"):
        letter_lengths(product, [Letter(0, 1), Letter(1, 1), Letter(1, 3)])
    with pytest.raises(NonGeneratingSetError) as info:
        letter_lengths(product, [Letter(0, 2), Letter(1, 1), Letter(1, 3)])
    assert info.value.factor == 0


def test_ball_count_natural_spheres():
    product = free_product_of_cyclics(4, 4)
    counts = ball_count(product, natural_lengths(product), 3)
    assert counts == [1, 6, 18, 54]


def test_ball_count_infinite_dihedral_is_linear():
    product = free_product_of_cyclics(2, 2)
    counts = ball_count(product, natural_lengths(product), 6)
    assert counts == [1, 2, 2, 2, 2, 2, 2]


def test_ball_count_budget_guard():
    product = free_product_of_cyclics(4, 4)
    with pytest.raises(StateBudgetError):
        ball_count(product, natural_lengths(product), 12, max_states=1000)


def test_sphere_series_matches_enumeration_and_bfs():
    product = free_product_of_cyclics(4, 4)
    minimal = [Letter(0, 1), Letter(0, 3), Letter(1, 1), Letter(1, 3)]
    table = letter_lengths(product, minimal)
    n = 7
    dp = sphere_series(product, table, n)
    assert dp == ball_count(product, table, n)
    assert dp == ball_count_bfs(product, minimal, n)
    natural = natural_lengths(product)
    assert sphere_series(product, natural, 5) == ball_count_bfs(product, product.alphabet, 5)


@pytest.mark.parametrize("orders, n", [((2, 3, 4), 7), ((2, 2, 3), 9), ((3, 5, 2, 4), 5)])
def test_sphere_series_matches_both_oracles_beyond_two_factors(orders, n):
    # an order-2 factor has one letter, and Z/4 and Z/5 have letters two generators long
    product = free_product_of_cyclics(*orders)
    minimal = minimal_generators(product)
    table = letter_lengths(product, minimal)
    dp = sphere_series(product, table, n)
    assert dp == ball_count(product, table, n)
    assert dp == ball_count_bfs(product, minimal, n)


def test_sphere_series_klein_factor():
    klein = make_finite_group(KLEIN_TABLE)
    product = FreeProduct([klein, make_cyclic(3)])
    gens = [Letter(0, 1), Letter(0, 2), Letter(1, 1), Letter(1, 2)]
    table = letter_lengths(product, gens)
    assert weight(table, Letter(0, 3)) == 2  # third involution = product of the two generators
    assert sphere_series(product, table, 6) == ball_count_bfs(product, gens, 6)


def test_minimal_sphere_ratio_approaches_growth_rate():
    product = free_product_of_cyclics(4, 4)
    minimal = [Letter(0, 1), Letter(0, 3), Letter(1, 1), Letter(1, 3)]
    spheres = sphere_series(product, letter_lengths(product, minimal), 14)
    ratio = spheres[14] / spheres[13]
    assert abs(math.log(ratio) - math.log(1 + math.sqrt(2))) < 1e-4


def test_normal_words_counts():
    product = free_product_of_cyclics(2, 3)
    words = normal_words(product, 2)
    assert len(words) == 3 + 4
    assert len(set(words)) == len(words)


def test_factor_distances_early_exit_matches_full_search():
    for group in (make_finite_group(S3_TABLE), make_finite_group(KLEIN_TABLE), make_cyclic(6)):
        for mask in range(2 ** (group.order - 1)):
            gens = [g for g in range(1, group.order) if mask >> (g - 1) & 1]
            dist = factor_distances(group, gens)
            assert list(dist.items()) == list(factor_distances_oracle(group, gens).items())
