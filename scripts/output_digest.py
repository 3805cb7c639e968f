"""Print the sha256 of every deterministic output of a checkout, as JSON.

    python3 scripts/output_digest.py [ROOT]

ROOT defaults to this repository. The simulator is imported from ROOT/src
and the scenarios are read from ROOT/scenarios; without either, the script
exits 2. The digest covers:

- the seeded report of every scenario under each variant, seeds 0-4;
- the exploration report of every scenario under each variant, visudo at
  ``max_steps`` 10 (its full search takes minutes);
- the exploration verdict of every scenario under each variant at its own
  ``max_steps``: the same bound as its report for all but visudo, whose
  search at 400 explores its three processes apart. A change to how
  ``explore`` searches may change the reports, never the verdicts;
- ``bench all``: the text it prints and the JSON ``--report-out`` writes;
- the variant cost matrix of every scenario, text and JSON alike.

Two checkouts whose digests are equal produce the same bytes on all of
these, so comparing the outputs of two commits is a diff of two runs.
"""

from __future__ import annotations

import hashlib
import json

from checkout import checkout_root

ROOT = checkout_root("python3 scripts/output_digest.py [ROOT]")

from dptisim.bench import SUITES, run_suites, scenario_matrix  # noqa: E402
from dptisim.scenario import _VARIANTS, build_simulation, load_scenario  # noqa: E402
from dptisim.tasks import explore  # noqa: E402

SEEDS = range(5)
EXPLORE_MAX_STEPS = {"visudo": 10}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bench_digests(reports: list) -> dict[str, str]:
    """The stdout and the ``--report-out`` JSON of a ``bench`` command."""
    return {
        "text": sha("".join(r.render_text() + "\n\n" for r in reports)),
        "json": sha(json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)),
    }


def main() -> None:
    digest: dict[str, str] = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        sc = load_scenario(path)
        for name, variant in _VARIANTS.items():
            for seed in SEEDS:
                report = build_simulation(sc, variant).run_seeded(seed, sc.schedule.get("max_steps", 1000))
                digest[f"seeded/{path.stem}/{name}/{seed}"] = sha(report.to_json())
            report = explore(
                lambda: build_simulation(sc, variant),
                EXPLORE_MAX_STEPS.get(path.stem, sc.schedule.get("max_steps", 24)),
            )
            digest[f"explore/{path.stem}/{name}"] = sha(report.to_json())
            if path.stem in EXPLORE_MAX_STEPS:
                report = explore(lambda: build_simulation(sc, variant), sc.schedule.get("max_steps", 24))
            digest[f"verdict/{path.stem}/{name}"] = sha(json.dumps(report.verdict(), sort_keys=True))
        for kind, value in bench_digests(scenario_matrix(sc, sc.cost_table)).items():
            digest[f"matrix/{path.stem}/{kind}"] = value
    for kind, value in bench_digests(run_suites(sorted(SUITES))).items():
        digest[f"bench_all/{kind}"] = value
    print(json.dumps(digest, sort_keys=True, indent=1))


if __name__ == "__main__":
    main()
