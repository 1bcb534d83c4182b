#!/usr/bin/env python3
"""Fail unless a `loadgen --json` result completed requests with no errors.

Usage: check_loadgen.py RESULT.json
"""
import json
import sys

with open(sys.argv[1]) as f:
    result = json.load(f)
if result["requests"] == 0 or result["errors"] != 0:
    sys.exit("loadgen: %d requests, %d errors" % (result["requests"], result["errors"]))
