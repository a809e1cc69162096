"""The benchmark's workloads: what each runs and how each job is checked.

Spectra workloads are fixed library calls in one interpreter and have no
random inputs.  The acceptance workload is a sequence of ``qhcodes``
commands, one process each; its seed picks the dealt secret, the
dealing seed and the participant set handed to ``sss recover``.
"""

from __future__ import annotations

import random

import checks

SPECTRA = {
    "spectra-odd": {
        "builds": [["hermitian", 7, 3], ["twisted", 5, 3], ["quasi-hermitian", 5, 3]],
        "calls": [["hyperplane_spectrum", "hermitian", 7, 3],
                  ["hyperplane_spectrum", "twisted", 5, 3],
                  ["hyperplane_spectrum", "quasi-hermitian", 5, 3],
                  ["line_spectrum", "twisted", 5, 3],
                  ["cutting_blocking_check", "twisted", 5, 3]],
    },
    "spectra-even": {
        "builds": [["hermitian", 8, 3], ["twisted", 8, 3], ["quasi-hermitian", 8, 3],
                   ["twisted", 4, 4], ["hermitian", 4, 4]],
        "calls": [["hyperplane_spectrum", "hermitian", 8, 3],
                  ["hyperplane_spectrum", "twisted", 8, 3],
                  ["hyperplane_spectrum", "quasi-hermitian", 8, 3],
                  ["hyperplane_spectrum", "twisted", 4, 4],
                  ["hyperplane_spectrum", "hermitian", 4, 4]],
    },
}

# varieties the acceptance commands build, for its set-up measurement
ACCEPTANCE_BUILDS = [["twisted", 3, 3], ["twisted", 4, 3],
                     ["hermitian", 2, 3], ["hermitian", 2, 4]]

WORKLOADS = ("spectra-odd", "spectra-even", "acceptance")

HERM23 = ["--q", "2", "--r", "3", "--variety", "hermitian"]


def library_problems(call, data) -> list:
    """Check one library call's result (as written by job.py)."""
    fn = call[0]
    counts = data.get("counts")
    if fn == "hyperplane_spectrum":
        return checks.hyperplane_spectrum_problems(
            counts, data["n"], data["Q"], data["r"], data["predicted"])
    if fn == "line_spectrum":
        return checks.line_spectrum_problems(
            counts, data["n"], data["Q"], data["r"], data["allowed"])
    if fn == "cutting_blocking_check":
        return checks.cutting_problems(data["ok"], data["checked"], data["sizes"],
                                       data["n"], data["Q"], data["r"])
    return [f"no check for {fn}"]


class Acceptance:
    """The acceptance commands for one seed, generated in order: the
    recover subset is drawn from the same pass's access payload."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.rng = rng
        self.secret = rng.randrange(4)          # GF(4) for hermitian q=2
        self.deal_seed = rng.randrange(2 ** 30)
        self.deal_path = f"{workdir}/deal.json"
        self.payloads = {}

    def commands(self):
        """Yield (name, argv, expected exit codes) one by one."""
        yield "variety-build", ["variety", "build", "--q", "3", "--r", "3"], (0,)
        yield "variety-spectrum", ["variety", "spectrum", "--q", "3", "--r", "3"], (0,)
        yield "variety-lines", ["variety", "lines", "--q", "3", "--r", "3"], (0,)
        yield "code-weights", ["code", "weights", "--q", "3", "--r", "3",
                               "--cross-check"], (0,)
        yield "code-minimality", ["code", "minimality", "--q", "4", "--r", "3"], (0,)
        yield "code-divisibility", ["code", "divisibility", "--q", "4", "--r", "3"], (0,)
        yield "code-dk", ["code", "dk", "--q", "3", "--r", "3", "--k", "2"], (0,)
        yield "sss-access", ["sss", "access", *HERM23], (0,)
        yield "sss-deal", ["sss", "deal", *HERM23, "--secret", str(self.secret),
                           "--seed", str(self.deal_seed), "--out", self.deal_path], (0,)
        sets = self.payloads["sss-access"]["report"]["sets"]
        subset = self.rng.choice(sets)
        yield "sss-recover", ["sss", "recover", *HERM23, "--subset",
                              ",".join(str(i) for i in subset),
                              "--shares", self.deal_path], (0,)
        yield "sss-democracy", ["sss", "democracy", "--q", "3", "--r", "3"], (0,)
        yield "sss-develop", ["sss", "develop"], (0,)
        yield "sss-verify-example", ["sss", "verify-example"], (0,)
        yield "code-dk-hermitian", ["code", "dk", "--q", "2", "--r", "4", "--k", "2",
                                    "--variety", "hermitian"], (0,)
        # refuses under this budget today (exit 3); a refusal reported as
        # SKIP inside a successful payload is accepted as well
        yield "code-minimality-budget", ["code", "minimality", "--q", "4", "--r", "3",
                                         "--budget", "1000000"], (0, 3)
        # checks 02 and 04 fail by design, so the suite exits 1
        yield "verify-all", ["verify-all"], (1,)

    @staticmethod
    def is_refusal(name: str, rc: int, payload) -> bool:
        return name == "code-minimality-budget" and (
            rc == 3 or (rc == 0 and "SKIP" in str(payload)))

    def problems(self, name: str, payload) -> list:
        """Check a finished command's payload by an independent route."""
        self.payloads[name] = payload
        if payload is None:
            return [] if name == "code-minimality-budget" else ["no JSON payload"]
        rep = payload.get("report", {})
        if name == "variety-spectrum":
            return checks.hyperplane_spectrum_problems(
                _counts(rep["spectrum"]), rep["variety"]["n"], 9, 3, rep["predicted"])
        if name == "variety-lines":
            return checks.line_spectrum_problems(
                _counts(rep["spectrum"]), rep["variety"]["n"], 9, 3,
                rep["allowed_sizes"])
        if name == "code-dk":
            spec = self.payloads.get("variety-spectrum")
            sizes = [e["size"] for e in spec["report"]["spectrum"]]
            d1 = spec["report"]["variety"]["n"] - max(sizes)
            hw = rep["higher_weight"]
            return checks.dk_problems(hw["k"], hw["d"], hw["subspaces"], 9, 3, d1)
        if name == "code-dk-hermitian":
            hw = rep["higher_weight"]
            return checks.dk_problems(hw["k"], hw["d"], hw["subspaces"], 4, 4,
                                      checks.hermitian_d1(4, 2))
        if name == "sss-access":
            return [] if rep.get("sets") else ["no access sets listed"]
        if name == "sss-recover":
            return checks.recover_problems(rep, self.secret)
        if name == "verify-all":
            return checks.verify_all_problems(rep.get("criteria", []))
        return []


def _counts(entries) -> dict:
    return {e["size"]: e["count"] for e in entries}
