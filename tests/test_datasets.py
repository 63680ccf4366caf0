"""Tests that the dataset stand-ins preserve their defining properties."""

import pytest

from repro.graph import datasets
from repro.graph.properties import degree_stats, gini_coefficient, id_locality

SCALE = 0.15


@pytest.fixture(scope="module")
def suite():
    return {ds.name: ds for ds in datasets.full_suite(SCALE)}


class TestSuite:
    def test_all_five_present(self, suite):
        assert set(suite) == {"uk-2002", "brain", "ljournal", "twitter",
                              "friendster"}

    def test_categories(self, suite):
        assert suite["uk-2002"].category == "Web"
        assert suite["brain"].category == "Biology"
        assert suite["twitter"].category == "Social Network"

    def test_deterministic(self):
        a = datasets.by_name("twitter", SCALE)
        b = datasets.by_name("twitter", SCALE)
        assert a.graph is b.graph  # cached and reproducible

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            datasets.by_name("orkut", SCALE)



class TestStructuralProperties:
    def test_brain_is_near_uniform(self, suite):
        deg = suite["brain"].graph.out_degrees().astype(float)
        assert gini_coefficient(deg) < 0.05

    def test_brain_has_largest_avg_degree(self, suite):
        brain = suite["brain"].avg_degree
        for name, ds in suite.items():
            if name != "brain":
                assert brain > ds.avg_degree

    def test_twitter_is_most_skewed(self, suite):
        ginis = {
            name: gini_coefficient(ds.graph.out_degrees().astype(float))
            for name, ds in suite.items()
        }
        assert ginis["twitter"] > ginis["ljournal"]
        assert ginis["twitter"] > ginis["uk-2002"]
        assert ginis["twitter"] > ginis["brain"]

    def test_twitter_has_super_hubs(self, suite):
        stats = degree_stats(suite["twitter"].graph)
        assert stats.maximum > 10 * stats.mean

    def test_uk2002_has_id_locality(self, suite):
        uk = id_locality(suite["uk-2002"].graph, 64)
        tw = id_locality(suite["twitter"].graph, 64)
        assert uk > 3 * tw

    def test_social_graphs_scrambled(self, suite):
        # community structure exists but is hidden in the input order
        for name in ("ljournal", "twitter", "friendster"):
            assert id_locality(suite[name].graph, 64) < 0.3
