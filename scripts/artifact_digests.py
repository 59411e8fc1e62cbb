"""SHA-256 of every artifact the command line writes, as one JSON object.

    PYTHONPATH=src python3 scripts/artifact_digests.py [CONFIG ...]

For each config (default: the three configs under configs/,
perfbench/configs/coupled_mc.json and two multi-column games written to
temporary configs, `RANDOM_GAMES`: a 2-D one on Monte Carlo and one on the
lattice) it runs, at seed 0, `solve`, `verify` on
the controls.csv that solve wrote, and `oracle` when the config has an
"oracle" block, each into a fresh temporary directory, and `check`, whose
stdout less its `wall time:` line stands in as the artifact "check/stdout".
It prints {config: {"<command>/<artifact>": sha256, "<command>.exit": code}}.
The configs are only read.  The package comes from PYTHONPATH, so pointing it at
another checkout's src/ digests that checkout, and a byte-identity check
between two commits is a diff of two outputs.  CLI output goes to stderr.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fbsdegames import Dims, random_lq_spec
from fbsdegames.cli import EXIT_CONFIG, plain
from fbsdegames.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIGS = (
    "configs/coupled_game.json",
    "configs/single_player_lqr.json",
    "configs/two_step_oracle.json",
    "perfbench/configs/coupled_mc.json",
)
SEED = "0"
# name: (random_lq_spec seed, dims, backend block); the shipped configs are
# all 1-D, so only these show a change in how a sum over several columns
# rounds, on each backend
RANDOM_GAMES = {
    "random_lq_spec(11, Dims(2, 2, 2, 2, 2)), montecarlo, 1024 paths, 8 steps":
        (11, Dims(2, 2, 2, 2, 2), {"kind": "montecarlo", "paths": 1024}),
    "random_lq_spec(11, Dims(2, 2, 1, 2, 2)), lattice, 8 steps":
        (11, Dims(2, 2, 1, 2, 2), {"kind": "lattice"}),
}


def random_game_config(seed: int, dims: Dims, backend: dict) -> dict:
    """`random_lq_spec(seed, dims)` on `backend` with 8 steps, as a config."""
    spec = random_lq_spec(seed, dims)
    return {
        "name": f"random_{dims.d}d_{backend['kind']}",
        "horizon": spec.horizon,
        "steps": 8,
        "dims": plain(spec.dims),
        "backend": backend,
        "initial": plain(spec.initial),
        "terminal": {"constant": plain(spec.xi)},
        **{key: plain(getattr(spec, key))
           for key in ("drift", "diffusion", "driver", "cost1", "cost2")},
        "box1": {"radius": float(spec.u1_box.upper[0])},
        "box2": {"radius": float(spec.u2_box.upper[0])},
    }


def _run(command: str, config: Path, out: Path, *extra: str) -> dict:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main([command, "--config", str(config), "--out", str(out),
                         "--seed", SEED, *extra])
    digests = {f"{command}.exit": code}
    for artifact in sorted(out.iterdir()) if out.exists() else ():
        digests[f"{command}/{artifact.name}"] = hashlib.sha256(artifact.read_bytes()).hexdigest()
    return digests


def _check(config: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        code = cli_main(["check", "--config", str(config), "--seed", SEED])
    text = buffer.getvalue()
    sys.stderr.write(text)
    # the wall time is the one line that differs between runs
    kept = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("wall time:"))
    return {"check.exit": code, "check/stdout": hashlib.sha256(kept.encode()).hexdigest()}


def digests(config: Path) -> dict:
    """Exit codes and artifact digests of solve, verify, (if configured)
    oracle, and check."""
    out = _check(config)
    with tempfile.TemporaryDirectory() as tmp:
        solved = Path(tmp) / "solve"
        out.update(_run("solve", config, solved))
        out.update(_run("verify", config, Path(tmp) / "verify",
                        "--controls", str(solved / "controls.csv")))
        # a config solve rejected (exit 64) need not be valid JSON
        rejected = out["solve.exit"] == EXIT_CONFIG
        if not rejected and json.loads(config.read_text()).get("oracle") is not None:
            out.update(_run("oracle", config, Path(tmp) / "oracle"))
    return out


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    configs = {n: Path(n) for n in names}
    with tempfile.TemporaryDirectory() as tmp:
        if not configs:
            configs = {n: ROOT / n for n in DEFAULT_CONFIGS}
            for k, (name, game) in enumerate(RANDOM_GAMES.items()):
                configs[name] = Path(tmp) / f"random_{k}.json"
                configs[name].write_text(json.dumps(random_game_config(*game)))
        print(json.dumps({n: digests(p) for n, p in configs.items()}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
