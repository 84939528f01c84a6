import pytest

import boardpile.bijection as bijection
from boardpile.bijection import (
    NotAPeriodConfiguration,
    NotNormalized,
    check_fire_reflect,
    config_to_poly,
    poly_to_config,
)
from boardpile.counting import brute_force_period_multisets
from boardpile.diffusion import is_period_config
from boardpile.graphs import complete
from boardpile.polyomino import BoardPilePolyomino, enumerate_board_pile


# --- forward map -------------------------------------------------------------


def test_poly_to_config_four_strip_example():
    x = BoardPilePolyomino(((0, 2), (3, 2), (2, 4), (3, 2)))
    assert poly_to_config(x) == (0, 0, 3, 3, 5, 5, 5, 5, 8, 8)


def test_poly_to_config_single_strip():
    assert poly_to_config(BoardPilePolyomino(((0, 6),))) == (0,) * 6


def test_poly_to_config_three_strip_example():
    x = BoardPilePolyomino(((0, 2), (3, 3), (2, 1)))
    assert poly_to_config(x) == (0, 0, 3, 3, 3, 5)


def test_images_are_period_configs():
    for n in range(1, 7):
        g = complete(n)
        for x in enumerate_board_pile(n):
            assert is_period_config(g, poly_to_config(x))


# --- inverse map -------------------------------------------------------------


def test_config_to_poly_four_strip_example():
    x = config_to_poly((0, 0, 3, 3, 5, 5, 5, 5, 8, 8))
    assert x.strips == ((0, 2), (3, 2), (2, 4), (3, 2))


def test_config_to_poly_sorts_its_input():
    x = config_to_poly((5, 0, 3, 3, 0, 5, 5, 5, 8, 8))
    assert x.strips == ((0, 2), (3, 2), (2, 4), (3, 2))
    with pytest.raises(ValueError, match="empty multiset"):
        config_to_poly(())


def test_config_to_poly_all_zero():
    assert config_to_poly((0, 0, 0, 0)).strips == ((0, 4),)


def test_config_to_poly_two_values():
    assert config_to_poly((0, 1)).strips == ((0, 1), (1, 1))


def test_config_to_poly_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        config_to_poly((1, 2))


def test_config_to_poly_rejects_transient_config():
    # (0, 2) on two vertices drains to (1, 1), never returning
    with pytest.raises(NotAPeriodConfiguration):
        config_to_poly((0, 2))


# --- round trips and image ----------------------------------------------------


def test_round_trip_from_polyominoes():
    for n in range(1, 7):
        for x in enumerate_board_pile(n):
            assert config_to_poly(poly_to_config(x)) == x


def test_round_trip_from_period_multisets():
    for n in range(1, 6):
        for ms in brute_force_period_multisets(n):
            assert poly_to_config(config_to_poly(ms)) == ms


def test_image_equals_period_multisets():
    for n in range(1, 6):
        image = {poly_to_config(x) for x in enumerate_board_pile(n)}
        assert image == set(brute_force_period_multisets(n))


def test_map_is_injective():
    for n in range(1, 7):
        images = [poly_to_config(x) for x in enumerate_board_pile(n)]
        assert len(images) == len(set(images))


# --- firing vs reflection -------------------------------------------------------


def test_fire_reflect_two_strip_example():
    assert check_fire_reflect(BoardPilePolyomino(((0, 2), (4, 5))))


def test_fire_reflect_single_strip():
    assert check_fire_reflect(BoardPilePolyomino(((0, 3),)))


def test_fire_reflect_small_sizes_exhaustively():
    for n in range(1, 7):
        for x in enumerate_board_pile(n):
            assert check_fire_reflect(x)


def test_fire_reflect_fails_when_reflection_does_not_match(monkeypatch):
    # strips (0, 1), (1, 2) are not their own mirror: with reflection taken
    # as the identity, the fired image no longer matches
    x = BoardPilePolyomino(((0, 1), (1, 2)))
    assert check_fire_reflect(x)
    monkeypatch.setattr(bijection, "reflect", lambda x: x)
    assert not check_fire_reflect(x)
