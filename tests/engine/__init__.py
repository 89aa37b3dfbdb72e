"""Tests of the asynchronous loop and fault recovery on the fabric, and of
the service client's retries.  The directory keeps the name of the
package these tests once covered, so their test ids stay stable."""
