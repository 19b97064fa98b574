"""Fixed cost of one techflux invocation: import the package, load the inputs, exit.

Usage: python3 perfbench/setup_probe.py (--lexicon L --corpus C [--corpus C ...] | --plant-spec S)

The benchmark times this process from start to exit as ``setup_s``. Inputs
go through the public API only: ``compile_lexicon`` and ``load_corpus`` for
the analysis workloads, ``load_plant_spec`` for synth.
"""

import argparse


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--lexicon")
    parser.add_argument("--corpus", action="append", default=[])
    parser.add_argument("--plant-spec", dest="plant_spec")
    args = parser.parse_args()

    import techflux  # the import is part of what is timed

    if args.plant_spec:
        techflux.load_plant_spec(args.plant_spec)
    else:
        techflux.compile_lexicon(args.lexicon)
        for path in args.corpus:
            techflux.load_corpus(path)


if __name__ == "__main__":
    main()
