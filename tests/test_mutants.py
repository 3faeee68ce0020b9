"""The committed mutant list stays aimed at the code as it stands."""
from mutants import MUTANTS, ROOT


def test_every_mutant_replaces_one_place_in_its_file():
    counts = {m.name: (ROOT / m.path).read_text().count(m.old)
              for m in MUTANTS}
    assert counts == {m.name: 1 for m in MUTANTS}
    assert len(counts) == len(MUTANTS)
    assert all(m.old != m.new for m in MUTANTS)


def test_every_mutant_names_tests_that_exist():
    missing = [(m.name, t) for m in MUTANTS for t in m.tests
               if not (ROOT / t.split("::")[0]).is_file()]
    assert missing == []
