      PROGRAM RACEMC
C     Planted defect: under a cyclic partition on 2 ranks, rank 1's
C     coarse collect bounding box A(4:32) covers the elements the
C     master writes in place (A(6), A(10), ...) and overwrites them
C     with rank 1's pre-region copies.  The planner demotes the collect
C     to fine grain and the pragma undoes it (RV201 between ranks 0
C     and 1; sanitizer S-RACE).  The sequential run prints A(6)=12 and
C     A(30)=60; the planted plan prints 6 and 30.
      INTEGER I, J
      REAL*8 A(32), C(16)
C$BUG KEEP-GRAIN A
      A(1) = 1.0
      DO I = 2, 32
        A(I) = A(I-1) + 1.0
      ENDDO
      DO I = 1, 16
        C(I) = 0.0
      ENDDO
      DO I = 1, 16
        DO J = 1, 32
          C(I) = C(I) + A(J)
        ENDDO
      ENDDO
      DO I = 1, 16
        A(2*I) = A(2*I) * 2.0
      ENDDO
      PRINT *, A(2), A(6), A(30), C(1)
      END
