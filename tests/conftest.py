import pytest

from scatterfuzz import load_corpus
from scatterfuzz.cmplog import CmpKey
from scatterfuzz.corpus import label_to_cmp_id


acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def corpus():
    return {s.name: s for s in load_corpus()}


@pytest.fixture(scope="session")
def get_key(corpus):
    def _get(name, label, hit_index=0):
        program = corpus[name].program
        return program, CmpKey(label_to_cmp_id(program, label), hit_index)
    return _get
