import pytest

from kgbench.rng import SplitMix64

# frozen from the reference C implementation of splitmix64
VECTORS = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
}


def test_reference_vectors():
    for seed, expected in VECTORS.items():
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(3)] == expected


def test_randrange_bounds():
    rng = SplitMix64(7)
    for _ in range(1000):
        assert 0 <= rng.randrange(13) < 13


def test_same_seed_same_stream():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_shuffle_is_permutation_and_deterministic():
    items1 = list(range(20))
    items2 = list(range(20))
    SplitMix64(5).shuffle(items1)
    SplitMix64(5).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(20))


def test_sample_distinct():
    rng = SplitMix64(3)
    picked = rng.sample(list(range(10)), 6)
    assert len(set(picked)) == 6


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: rng.randrange(0), "randrange bound must be positive"),
        (lambda rng: rng.choice([]), "choice from empty sequence"),
        (lambda rng: rng.sample([1], 2), "sample larger than population"),
    ],
    ids=["randrange", "choice", "sample"],
)
def test_a_refused_draw_leaves_the_stream_where_it_was(draw, message):
    rng = SplitMix64(42)
    rng.next_u64()
    with pytest.raises(ValueError) as exc:
        draw(rng)
    assert str(exc.value) == message
    assert rng.next_u64() == VECTORS[42][1]
