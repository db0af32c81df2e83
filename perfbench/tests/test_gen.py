import subprocess
import sys

import gen


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_inputs_and_another_seed_differs(tmp_path):
    for workload in gen.PEOPLE_ROWS:
        gen.generate(workload, 7, tmp_path / "a" / workload)
        gen.generate(workload, 7, tmp_path / "b" / workload)
        gen.generate(workload, 8, tmp_path / "c" / workload)
        a = _files(tmp_path / "a" / workload)
        assert a == _files(tmp_path / "b" / workload)
        assert a != _files(tmp_path / "c" / workload)


def test_negative_and_huge_seeds_are_accepted(tmp_path):
    gen.generate("dp_audit", -3, tmp_path / "neg")
    gen.generate("dp_audit", 2**70, tmp_path / "huge")
    assert _files(tmp_path / "neg") != _files(tmp_path / "huge")


def test_desk_instance_keeps_its_pattern_under_relabelling():
    for seed in range(20):
        xs = gen.desk_values(gen.np.random.default_rng(seed))
        low = [x <= 5 for x in xs]
        assert low == [cell[0] == "L" for cell in gen.DESK_PATTERN]
        same = [[xs[i] == xs[j] for j in range(len(xs))] for i in range(len(xs))]
        pattern = gen.DESK_PATTERN
        assert same == [[pattern[i] == pattern[j] for j in range(len(xs))] for i in range(len(xs))]


def test_generator_does_not_import_sdckit(tmp_path):
    code = (
        "import sys, gen; gen.generate('recode_generalization', 1, __import__('pathlib').Path(sys.argv[1]));"
        "assert not [m for m in sys.modules if m.startswith('sdckit')]"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                   cwd=gen.__file__.rsplit("/", 1)[0])
