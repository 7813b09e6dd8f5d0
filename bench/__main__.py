import sys

from bench.ledger import main

if __name__ == "__main__":
    sys.exit(main())
