"""Write the goldens the correctness gate compares with.

Run from the repository root, against the library whose outputs are
correct by definition:

    PYTHONPATH=src python3 perfbench/capture_goldens.py

It writes the sha256 of the seed-11 kiss census and the stdout of
``sga components --max-len 8`` on each default quiver file.
"""

from __future__ import annotations

import subprocess

from workloads import GOLDENS, ComponentsCli, KissCensus


def main() -> None:
    GOLDENS.mkdir(exist_ok=True)
    kc = KissCensus()
    kc.setup(kc.default_seed)
    for item in kc.items():
        kc.run(item)
    (GOLDENS / "kiss-census-11.sha256").write_text(f"{kc.digest()}  {len(kc.lines)} censuses\n")

    cli = ComponentsCli()
    cli.setup(cli.default_seed)
    cli.prepare(goldens=False)
    for label, path, _ in cli.files:
        proc = subprocess.run(cli.console_command(path), capture_output=True, check=True)
        (GOLDENS / f"components-{label}.tsv").write_bytes(proc.stdout)


if __name__ == "__main__":
    main()
