"""Parameter advisor (the paper's future-work extension)."""

import pytest

from repro.core.sla import PAPER_SLO
from repro.tuning import ParameterAdvisor, default_grid
from repro.ecommerce.config import PAPER_CONFIG


@pytest.fixture(scope="module")
def advisor() -> ParameterAdvisor:
    return ParameterAdvisor(
        PAPER_CONFIG,
        PAPER_SLO,
        transactions=1_500,
        replications=1,
        seed=5,
    )


class TestGrid:
    def test_default_grid_products(self):
        grid = default_grid(30)
        assert all(n * K * D == 30 for n, K, D in grid)
        # All the paper's Fig. 11/14/15 configurations are in the frame.
        assert (2, 5, 3) in grid
        assert (30, 1, 1) in grid
        assert (3, 2, 5) in grid

    def test_grid_has_no_duplicates(self):
        grid = default_grid(12)
        assert len(grid) == len(set(grid))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_grid(0)


class TestScoring:
    def test_score_fields(self, advisor):
        score = advisor.score(2, 5, 3)
        assert score.label == "sraa(n=2, K=5, D=3)"
        assert score.high_load_rt > 0
        assert 0.0 <= score.low_load_loss <= 1.0
        assert score.score == pytest.approx(
            score.high_load_rt + 1_000.0 * score.low_load_loss
        )

    def test_score_grid_sorted(self, advisor):
        scores = advisor.score_grid([(2, 5, 3), (30, 1, 1), (15, 2, 1)])
        values = [s.score for s in scores]
        assert values == sorted(values)

    def test_score_grid_matches_pins(self, advisor):
        # Captured while the grid still ran one job list per
        # (configuration, load) point.
        grid = [(2, 5, 3), (30, 1, 1), (15, 2, 1), (3, 2, 5)]
        scores = advisor.score_grid(grid)
        assert [
            (s.n, s.K, s.D, s.high_load_rt, s.low_load_loss) for s in scores
        ] == [
            (30, 1, 1, 4.85190746495428, 0.0),
            (3, 2, 5, 8.70141737863871, 0.0),
            (2, 5, 3, 8.901776811374178, 0.0),
            (15, 2, 1, 12.821936914512163, 0.0),
        ]

    def test_saraa_score_grid_matches_pins(self):
        advisor = ParameterAdvisor(
            PAPER_CONFIG,
            PAPER_SLO,
            transactions=1_500,
            replications=2,
            seed=5,
        )
        scores = advisor.score_grid([(2, 5, 3), (30, 1, 1)], "saraa")
        assert [
            (s.n, s.high_load_rt, s.low_load_loss, s.score) for s in scores
        ] == [
            (30, 4.8543419562207735, 0.0026666666666666666, 7.5210086228874395),
            (2, 10.259466699011169, 0.0, 10.259466699011169),
        ]

    def test_saraa_supported(self, advisor):
        score = advisor.score(2, 5, 3, algorithm="saraa")
        assert score.algorithm == "saraa"

    def test_unknown_algorithm(self, advisor):
        with pytest.raises(ValueError):
            advisor.score(2, 5, 3, algorithm="magic")

    def test_recommend_prefers_balance(self, advisor):
        # The paper's conclusion: balanced small values beat investing
        # everything in one dimension.  At minimum, the recommendation
        # must beat the extreme (30,1,1) under the combined objective.
        candidates = [(2, 5, 3), (3, 2, 5), (30, 1, 1), (1, 10, 3)]
        best = advisor.recommend(candidates)
        extreme = advisor.score(30, 1, 1)
        assert best.score <= extreme.score

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterAdvisor(PAPER_CONFIG, PAPER_SLO, transactions=10)
        with pytest.raises(ValueError):
            ParameterAdvisor(PAPER_CONFIG, PAPER_SLO, replications=0)
        with pytest.raises(ValueError):
            ParameterAdvisor(PAPER_CONFIG, PAPER_SLO, loss_penalty=-1.0)
