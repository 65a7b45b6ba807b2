"""Differential testing: every algorithm against the chase oracle on random inputs.

These are the heavyweight correctness tests.  The seeds are fixed so the run
time stays predictable; the generator parameters are chosen so the inputs
exercise existential chains, constants inside TGDs, and multi-atom bodies.
"""

import pytest

from repro import KnowledgeBase
from repro.chase import certain_base_facts
from repro.rewriting import RewritingSettings
from repro.workloads.random_gtgds import (
    RandomGTGDConfig,
    generate_random_gtgds,
    generate_random_instance,
)

ALGORITHMS = ("exbdr", "skdr", "hypdr")


def _check_seed(seed: int, config: RandomGTGDConfig, algorithms=ALGORITHMS,
                settings=None) -> None:
    tgds = generate_random_gtgds(config)
    instance = generate_random_instance(tgds, seed=seed, fact_count=5, constant_count=3)
    expected = certain_base_facts(instance, tgds)
    for algorithm in algorithms:
        kb = KnowledgeBase.compile(tgds, algorithm=algorithm, settings=settings)
        actual = kb.session(instance).certain_base_facts()
        assert actual == expected, (
            f"seed {seed}, algorithm {algorithm}: "
            f"missing {expected - actual}, extra {actual - expected}"
        )


class TestSmallRandomInputs:
    @pytest.mark.parametrize("seed", range(10))
    def test_default_configuration(self, seed):
        config = RandomGTGDConfig(seed=seed, tgd_count=6, predicate_count=5)
        _check_seed(seed, config)


class TestExistentialHeavyInputs:
    @pytest.mark.parametrize("seed", range(200, 208))
    def test_many_existentials(self, seed):
        config = RandomGTGDConfig(
            seed=seed,
            tgd_count=8,
            predicate_count=5,
            existential_probability=0.7,
            max_body_atoms=2,
            max_head_atoms=3,
        )
        _check_seed(seed, config)


class TestWiderBodies:
    @pytest.mark.parametrize("seed", range(300, 306))
    def test_three_atom_bodies(self, seed):
        config = RandomGTGDConfig(
            seed=seed,
            tgd_count=8,
            predicate_count=5,
            existential_probability=0.5,
            max_body_atoms=3,
            max_head_atoms=2,
        )
        _check_seed(seed, config)


class TestConstantsInDependencies:
    @pytest.mark.parametrize("seed", range(400, 406))
    def test_constants_flow_out_of_subtrees(self, seed):
        config = RandomGTGDConfig(
            seed=seed,
            tgd_count=7,
            predicate_count=4,
            existential_probability=0.5,
            constant_count=3,
        )
        _check_seed(seed, config)


class TestAblationsRemainCorrect:
    @pytest.mark.parametrize("seed", (500, 501, 502))
    def test_without_subsumption(self, seed):
        config = RandomGTGDConfig(seed=seed, tgd_count=6, predicate_count=5)
        _check_seed(
            seed, config, settings=RewritingSettings(use_subsumption=False)
        )

    @pytest.mark.parametrize("seed", (510, 511, 512))
    def test_without_lookahead(self, seed):
        config = RandomGTGDConfig(seed=seed, tgd_count=6, predicate_count=5)
        _check_seed(
            seed, config, settings=RewritingSettings(use_lookahead=False)
        )

    @pytest.mark.parametrize("seed", (520, 521))
    def test_with_exact_subsumption(self, seed):
        config = RandomGTGDConfig(seed=seed, tgd_count=6, predicate_count=5)
        _check_seed(
            seed, config, settings=RewritingSettings(exact_subsumption=True)
        )


class TestFullDROnTinyInputs:
    """FullDR enumerates bounded substitutions rather than MGUs, so even small
    inputs are expensive (Example E.3); the differential check therefore uses
    very small dependency sets without constants."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_fulldr_matches_oracle(self, seed):
        config = RandomGTGDConfig(
            seed=seed,
            tgd_count=3,
            predicate_count=3,
            existential_probability=0.4,
            max_body_atoms=2,
            max_head_atoms=1,
            constant_count=0,
        )
        _check_seed(seed, config, algorithms=("fulldr",))


class TestOntologySuiteInputs:
    @pytest.mark.parametrize("index", (0, 1))
    def test_algorithms_agree_on_generated_ontologies(self, index):
        """On suite inputs (too big for the oracle) the three algorithms must
        at least agree with each other."""
        from repro.workloads.ontology_suite import generate_suite
        from repro.workloads.instances import generate_instance

        suite = generate_suite(count=2, seed=21, min_axioms=12, max_axioms=25)
        item = suite[index]
        instance = generate_instance(item.tgds, fact_count=30, constant_count=10, seed=index)
        answers = {}
        for algorithm in ALGORITHMS:
            kb = KnowledgeBase.compile(item.tgds, algorithm=algorithm)
            answers[algorithm] = kb.session(instance).certain_base_facts()
        assert answers["exbdr"] == answers["skdr"] == answers["hypdr"]
